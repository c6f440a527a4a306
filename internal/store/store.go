// Package store is the content-addressed artifact registry: a SHA-256
// keyed CAS holding whole-program-path artifacts and the individual
// chunk grammars they are made of, plus a build index mapping build
// tuples (workload, args, scale, chunk geometry, format) to artifact
// hashes.
//
// Two object kinds share one object namespace:
//
//   - blob objects — the complete encoded bytes of a monolithic
//     artifact (WPP1/WPP2), stored whole;
//   - chunk objects — one framed sequitur snapshot each, split from a
//     chunked artifact's encoding by wpp.ArtifactView.Parts, plus the
//     artifact header as its own object.
//
// Because a chunked artifact's encoding is exactly header || chunk_0 ||
// ... || chunk_{n-1}, the store records a manifest listing the part
// hashes in order and reassembles the artifact byte-identically on
// read. Identical chunk grammars from repeated runs of the same program
// hash to the same object and are stored once.
//
// Layout under the store directory:
//
//	objects/<2-hex>/<62-hex>   content-addressed objects (sha256)
//	artifacts/<64-hex>.json    artifact manifests, named by artifact hash
//	index/<64-hex>.json        build-key index entries, named by key hash
//
// All writes are atomic (temp file + rename), so a crashed writer never
// leaves a partial object visible; readers verify hashes on every read
// and report mismatches as *CorruptObjectError rather than returning
// bad bytes.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Hash is a SHA-256 digest: the identity of an object, an artifact, or
// a build key.
type Hash [sha256.Size]byte

// HashOf digests data.
func HashOf(data []byte) Hash { return sha256.Sum256(data) }

// String renders the hash as 64 lowercase hex digits.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// ParseHash parses a full 64-digit hex hash.
func ParseHash(s string) (Hash, error) {
	var h Hash
	if len(s) != 2*sha256.Size {
		return h, fmt.Errorf("store: hash %q: want %d hex digits, have %d", s, 2*sha256.Size, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return h, fmt.Errorf("store: hash %q: %w", s, err)
	}
	copy(h[:], b)
	return h, nil
}

// ErrNotFound reports a missing object, artifact, or build-index entry.
var ErrNotFound = errors.New("store: not found")

// CorruptObjectError reports that bytes read back from the store do not
// hash to the name they were stored under. Readers return it instead of
// the corrupt bytes and never repair the object; a later PutObject of
// the same content does.
type CorruptObjectError struct {
	// Path is the file whose contents failed verification.
	Path string
	// Want is the hash the content was addressed by; Got is the hash of
	// the bytes actually on disk.
	Want, Got Hash
}

func (e *CorruptObjectError) Error() string {
	return fmt.Sprintf("store: corrupt object %s: content hashes to %s", e.Path, e.Got)
}

// SizeError reports a manifest whose size is not the byte count of the
// parts it lists. Readers return it instead of trusting the size.
type SizeError struct {
	// Path is the manifest file.
	Path string
	// Size is what the manifest states; Parts is what its parts hold.
	Size, Parts int64
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("store: manifest %s states %d bytes, its parts hold %d", e.Path, e.Size, e.Parts)
}

// Store is one on-disk content-addressed store. It is safe for
// concurrent use by multiple goroutines; concurrent Resolve calls for
// the same build key collapse into a single build.
type Store struct {
	dir string
	met Metrics

	// flight collapses concurrent Resolve calls per build-key ID.
	flightMu sync.Mutex
	flight   map[string]*flightCall
}

// Open opens (creating if needed) the store rooted at dir. met may be
// nil to disable instrumentation.
func Open(dir string, met *Metrics) (*Store, error) {
	for _, sub := range []string{"objects", "artifacts", "index"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open: %w", err)
		}
	}
	return &Store{dir: dir, met: met.orNoop(), flight: map[string]*flightCall{}}, nil
}

func (s *Store) objectPath(h Hash) string {
	hx := h.String()
	return filepath.Join(s.dir, "objects", hx[:2], hx[2:])
}

// PutObject stores data under its hash. The second return is true when
// the object was written, false when the object on disk already held
// exactly data (the dedup case — nothing is written). An object file
// that holds other bytes is corrupt: it is counted in CorruptObjects
// and rewritten atomically.
func (s *Store) PutObject(data []byte) (Hash, bool, error) {
	h := HashOf(data)
	p := s.objectPath(h)
	switch exists, same := holds(p, data); {
	case same:
		s.met.ObjectsDeduped.Inc()
		s.met.BytesDeduped.Add(uint64(len(data)))
		return h, false, nil
	case exists:
		s.met.CorruptObjects.Inc()
	}
	if err := writeFileAtomic(p, data); err != nil {
		return h, false, fmt.Errorf("store: put object: %w", err)
	}
	s.met.ObjectsWritten.Inc()
	s.met.BytesWritten.Add(uint64(len(data)))
	return h, true, nil
}

// GetObject reads the object named h, verifying its content hash. A
// missing object reports ErrNotFound; a hash mismatch reports
// *CorruptObjectError.
func (s *Store) GetObject(h Hash) ([]byte, error) {
	p := s.objectPath(h)
	data, err := os.ReadFile(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: object %s: %w", h, ErrNotFound)
		}
		return nil, fmt.Errorf("store: get object: %w", err)
	}
	if got := HashOf(data); got != h {
		s.met.CorruptObjects.Inc()
		return nil, &CorruptObjectError{Path: p, Want: h, Got: got}
	}
	return data, nil
}

// holds reports whether a file exists at path and whether it holds
// exactly data, comparing a block at a time so that a large object is
// never read whole.
func holds(path string, data []byte) (exists, same bool) {
	f, err := os.Open(path)
	if err != nil {
		return false, false
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil || fi.Size() != int64(len(data)) {
		return true, false
	}
	buf := make([]byte, min(len(data), 32<<10))
	for rest := data; len(rest) > 0; {
		block := buf[:min(len(buf), len(rest))]
		if _, err := io.ReadFull(f, block); err != nil || !bytes.Equal(block, rest[:len(block)]) {
			return true, false
		}
		rest = rest[len(block):]
	}
	return true, true
}

// writeFileAtomic writes data to path via a temp file in the same
// directory and an atomic rename, creating parent directories as
// needed. Concurrent writers of the same path race benignly: both write
// identical content (content addressing), and rename is atomic.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
