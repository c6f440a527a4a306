package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/mmapio"
	"repro/internal/sequitur"
	iwpp "repro/internal/wpp"
)

// ManifestSchema versions the manifest JSON; decoders reject anything
// else.
const ManifestSchema = "wpp-store/v1"

// Manifest describes how one stored artifact is assembled from CAS
// objects. The artifact's identity is the SHA-256 of its complete
// encoded byte stream — the same digest the serve daemon publishes when
// it seals a session — and the concatenation of the listed parts, in
// order, is exactly that stream.
type Manifest struct {
	// Schema is always ManifestSchema.
	Schema string `json:"schema"`
	// Artifact is the hex hash of the full encoded artifact.
	Artifact string `json:"artifact"`
	// Format is the 4-byte artifact magic ("WPP1", "WPC2", ...).
	Format string `json:"format"`
	// Kind is "blob" (one part: the whole encoding) or "chunked" (the
	// header object followed by one object per chunk grammar).
	Kind string `json:"kind"`
	// Size is the total encoded size in bytes.
	Size int64 `json:"size"`
	// Parts lists the object hashes whose concatenation is the
	// artifact.
	Parts []string `json:"parts"`
}

// DecodeManifest parses and validates manifest JSON. Every hash must
// parse, the schema must match, and a blob manifest must have exactly
// one part.
func DecodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("store: manifest: unknown schema %q", m.Schema)
	}
	if _, err := ParseHash(m.Artifact); err != nil {
		return nil, fmt.Errorf("store: manifest artifact: %w", err)
	}
	if m.Size < 0 {
		return nil, fmt.Errorf("store: manifest: negative size %d", m.Size)
	}
	switch m.Kind {
	case "blob":
		if len(m.Parts) != 1 {
			return nil, fmt.Errorf("store: blob manifest with %d parts", len(m.Parts))
		}
	case "chunked":
		if len(m.Parts) == 0 {
			return nil, fmt.Errorf("store: chunked manifest with no parts")
		}
	default:
		return nil, fmt.Errorf("store: manifest: unknown kind %q", m.Kind)
	}
	if len(m.Format) != 4 {
		return nil, fmt.Errorf("store: manifest: bad format %q", m.Format)
	}
	for _, p := range m.Parts {
		if _, err := ParseHash(p); err != nil {
			return nil, fmt.Errorf("store: manifest part: %w", err)
		}
	}
	return &m, nil
}

// partHashes parses Parts; the manifest must already be validated.
func (m *Manifest) partHashes() ([]Hash, error) {
	hs := make([]Hash, len(m.Parts))
	for i, p := range m.Parts {
		h, err := ParseHash(p)
		if err != nil {
			return nil, err
		}
		hs[i] = h
	}
	return hs, nil
}

func (s *Store) manifestPath(h Hash) string {
	return filepath.Join(s.dir, "artifacts", h.String()+".json")
}

// Manifest loads the manifest for artifact h; ErrNotFound if the
// artifact is not stored.
func (s *Store) Manifest(h Hash) (*Manifest, error) {
	data, err := os.ReadFile(s.manifestPath(h))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: artifact %s: %w", h, ErrNotFound)
		}
		return nil, fmt.Errorf("store: manifest: %w", err)
	}
	return DecodeManifest(data)
}

// PutArtifact encodes a and stores it: chunk-by-chunk for chunked
// artifacts (identical chunk grammars dedup against everything already
// in the CAS), whole for monolithic ones. The returned hash is the
// SHA-256 of the complete encoded byte stream. Storing an artifact that
// is already present rewrites nothing.
func (s *Store) PutArtifact(a iwpp.Artifact) (Hash, *Manifest, error) {
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		return Hash{}, nil, fmt.Errorf("store: encoding artifact: %w", err)
	}
	return s.PutArtifactEncoded(a, buf.Bytes())
}

// PutArtifactBytes stores an already-encoded artifact. Every chunk is
// materialized through the one view the put opens, so corrupt input is
// refused rather than stored; the bytes are then stored exactly as
// given.
func (s *Store) PutArtifactBytes(enc []byte) (Hash, *Manifest, error) {
	v, err := iwpp.NewView(enc, nil)
	if err == nil {
		err = engine.EachChunk(v, 0, func(int, *sequitur.Snapshot) error { return nil })
	}
	if err != nil {
		return Hash{}, nil, fmt.Errorf("store: decoding artifact: %w", err)
	}
	return s.put(v, enc)
}

// PutArtifactEncoded stores an artifact whose encoding the caller
// already holds, skipping the re-encode of PutArtifact and the decode
// of PutArtifactBytes. enc must be a's Encode output; its header is
// checked against a before anything is recorded.
func (s *Store) PutArtifactEncoded(a iwpp.Artifact, enc []byte) (Hash, *Manifest, error) {
	v, err := iwpp.NewView(enc, nil)
	if err != nil {
		return Hash{}, nil, fmt.Errorf("store: artifact header: %w", err)
	}
	if err := checkHeader(v, a); err != nil {
		return Hash{}, nil, err
	}
	return s.put(v, enc)
}

// put stores enc, viewed by v. Chunked artifacts are split into header
// and chunk objects along the framing of enc itself, so the parts
// reassemble exactly the bytes being addressed.
func (s *Store) put(v *iwpp.ArtifactView, enc []byte) (Hash, *Manifest, error) {
	h := HashOf(enc)
	if m, err := s.Manifest(h); err == nil {
		// Already stored. Still a put of every part as far as dedup
		// accounting goes — the caller produced the same bytes again.
		s.met.ObjectsDeduped.Add(uint64(len(m.Parts)))
		s.met.BytesDeduped.Add(uint64(m.Size))
		return h, m, nil
	}
	m := &Manifest{
		Schema:   ManifestSchema,
		Artifact: h.String(),
		Format:   string(enc[:4]),
		Size:     int64(len(enc)),
	}
	if v.Chunked() {
		header, chunks, err := v.Parts()
		if err != nil {
			return Hash{}, nil, fmt.Errorf("store: splitting artifact: %w", err)
		}
		// The parts must reassemble the exact bytes being addressed;
		// bytes after the last chunk would be lost, so refuse them.
		total := len(header)
		for _, ch := range chunks {
			total += len(ch)
		}
		if total != len(enc) {
			return Hash{}, nil, fmt.Errorf("store: parts sum to %d bytes, artifact is %d", total, len(enc))
		}
		m.Kind = "chunked"
		m.Parts = make([]string, 0, 1+len(chunks))
		for _, part := range append([][]byte{header}, chunks...) {
			ph, _, err := s.PutObject(part)
			if err != nil {
				return Hash{}, nil, err
			}
			m.Parts = append(m.Parts, ph.String())
		}
	} else {
		m.Kind = "blob"
		ph, _, err := s.PutObject(enc)
		if err != nil {
			return Hash{}, nil, err
		}
		m.Parts = []string{ph.String()}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return Hash{}, nil, fmt.Errorf("store: encoding manifest: %w", err)
	}
	if err := writeFileAtomic(s.manifestPath(h), append(data, '\n')); err != nil {
		return Hash{}, nil, fmt.Errorf("store: writing manifest: %w", err)
	}
	s.met.ArtifactsStored.Inc()
	return h, m, nil
}

// checkHeader reports an error unless the view's header describes a:
// the same container, chunk count and header counters.
func checkHeader(v *iwpp.ArtifactView, a iwpp.Artifact) error {
	c, chunked := a.(*iwpp.ChunkedWPP)
	if v.Chunked() != chunked || (chunked && v.NumChunks() != len(c.Chunks)) ||
		v.NumEvents() != a.NumEvents() || v.TotalInstructions() != a.TotalInstructions() ||
		v.DistinctPaths() != a.DistinctPaths() || len(v.FuncTable()) != len(a.FuncTable()) {
		return fmt.Errorf("store: encoding (%s, %d events) is not the artifact's (%d events)",
			v.Format(), v.NumEvents(), a.NumEvents())
	}
	return nil
}

// checkSize fails with a *SizeError unless the object files of parts,
// artifact h's, hold m.Size bytes together. The objects are not read:
// each is hash-verified, and so held to its size, when it is loaded.
func (s *Store) checkSize(h Hash, m *Manifest, parts []Hash) error {
	var total int64
	for _, ph := range parts {
		fi, err := os.Stat(s.objectPath(ph))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return fmt.Errorf("store: object %s: %w", ph, ErrNotFound)
			}
			return fmt.Errorf("store: object %s: %w", ph, err)
		}
		total += fi.Size()
	}
	if total != m.Size {
		return &SizeError{Path: s.manifestPath(h), Size: m.Size, Parts: total}
	}
	return nil
}

// GetArtifact reassembles the full encoded bytes of artifact h from its
// parts, verifying each object, the manifest's size (*SizeError) and the
// whole-artifact hash. The result is byte-identical to what was stored.
// The buffer grows with the parts, so a false size allocates nothing.
func (s *Store) GetArtifact(h Hash) ([]byte, error) {
	m, err := s.Manifest(h)
	if err != nil {
		return nil, err
	}
	parts, err := m.partHashes()
	if err != nil {
		return nil, err
	}
	var buf []byte
	for _, ph := range parts {
		data, err := s.GetObject(ph)
		if err != nil {
			return nil, err
		}
		buf = append(buf, data...)
	}
	if int64(len(buf)) != m.Size {
		return nil, &SizeError{Path: s.manifestPath(h), Size: m.Size, Parts: int64(len(buf))}
	}
	if got := HashOf(buf); got != h {
		s.met.CorruptObjects.Inc()
		return nil, &CorruptObjectError{Path: s.manifestPath(h), Want: h, Got: got}
	}
	return buf, nil
}

// ArtifactReader streams artifact h one part at a time — for a chunked
// artifact, one chunk grammar resident at once rather than the whole
// encoding. Parts are memory-mapped where the platform supports it and
// unmapped as the read position crosses into the next part. Each object
// is hash-verified as it is loaded, and the whole-artifact digest is
// checked before EOF is reported, so a reader that drains to EOF has
// read exactly the stored bytes. The returned size is the total byte
// count, which the part objects' sizes must match (*SizeError).
func (s *Store) ArtifactReader(h Hash) (io.ReadCloser, int64, error) {
	m, err := s.Manifest(h)
	if err != nil {
		return nil, 0, err
	}
	parts, err := m.partHashes()
	if err != nil {
		return nil, 0, err
	}
	if err := s.checkSize(h, m, parts); err != nil {
		return nil, 0, err
	}
	return &artifactReader{s: s, want: h, path: s.manifestPath(h), parts: parts, digest: sha256.New()}, m.Size, nil
}

type artifactReader struct {
	s      *Store
	want   Hash
	path   string
	parts  []Hash
	idx    int
	cur    *mmapio.Data // current part's mapping; nil between parts
	off    int          // read offset into cur
	digest hash.Hash    // running whole-artifact digest over bytes handed out
}

func (r *artifactReader) Read(p []byte) (int, error) {
	for r.cur == nil || r.off >= r.cur.Len() {
		if r.cur != nil {
			if err := r.cur.Close(); err != nil {
				return 0, err
			}
			r.cur, r.off = nil, 0
		}
		if r.idx >= len(r.parts) {
			var got Hash
			r.digest.Sum(got[:0])
			if got != r.want {
				r.s.met.CorruptObjects.Inc()
				return 0, &CorruptObjectError{Path: r.path, Want: r.want, Got: got}
			}
			return 0, io.EOF
		}
		d, err := r.s.mapObject(r.parts[r.idx])
		if err != nil {
			return 0, err
		}
		r.idx++
		r.cur = d
	}
	n := copy(p, r.cur.Bytes()[r.off:])
	r.digest.Write(r.cur.Bytes()[r.off : r.off+n])
	r.off += n
	return n, nil
}

func (r *artifactReader) Close() error {
	if r.cur != nil {
		err := r.cur.Close()
		r.cur = nil
		return err
	}
	return nil
}

// FindArtifact resolves a hex prefix (at least 4 digits) to the unique
// stored artifact hash it abbreviates. Ambiguous prefixes are an error;
// unknown ones report ErrNotFound.
func (s *Store) FindArtifact(prefix string) (Hash, error) {
	if len(prefix) < 4 {
		return Hash{}, fmt.Errorf("store: hash prefix %q too short (need >= 4 hex digits)", prefix)
	}
	all, err := s.Artifacts()
	if err != nil {
		return Hash{}, err
	}
	var found []Hash
	for _, h := range all {
		if strings.HasPrefix(h.String(), strings.ToLower(prefix)) {
			found = append(found, h)
		}
	}
	switch len(found) {
	case 0:
		return Hash{}, fmt.Errorf("store: artifact %s*: %w", prefix, ErrNotFound)
	case 1:
		return found[0], nil
	}
	return Hash{}, fmt.Errorf("store: hash prefix %q is ambiguous (%d matches)", prefix, len(found))
}

// Artifacts lists every stored artifact hash, sorted.
func (s *Store) Artifacts() ([]Hash, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "artifacts"))
	if err != nil {
		return nil, fmt.Errorf("store: listing artifacts: %w", err)
	}
	var hs []Hash
	for _, ent := range entries {
		name, ok := strings.CutSuffix(ent.Name(), ".json")
		if !ok {
			continue
		}
		h, err := ParseHash(name)
		if err != nil {
			continue // foreign file; not ours to interpret
		}
		hs = append(hs, h)
	}
	sort.Slice(hs, func(i, j int) bool { return bytes.Compare(hs[i][:], hs[j][:]) < 0 })
	return hs, nil
}
