package store

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/mmapio"
	iwpp "repro/internal/wpp"
)

// mapObject opens the object named h through mmapio and verifies its
// content hash over the mapped bytes — the same guarantee as GetObject
// without copying the object through the heap. The caller owns the
// returned Data and must Close it; nothing is retained on error.
func (s *Store) mapObject(h Hash) (*mmapio.Data, error) {
	p := s.objectPath(h)
	d, err := mmapio.Open(p)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("store: object %s: %w", h, ErrNotFound)
		}
		return nil, fmt.Errorf("store: get object: %w", err)
	}
	if got := HashOf(d.Bytes()); got != h {
		d.Close()
		s.met.CorruptObjects.Inc()
		return nil, &CorruptObjectError{Path: p, Want: h, Got: got}
	}
	return d, nil
}

// OpenView opens stored artifact h as a lazy wpp.ArtifactView. A blob
// artifact maps its single object — whose hash is the artifact hash, so
// the one open-time verification covers every byte the view can ever
// serve. A chunked artifact reads its (small) header object eagerly and
// binds one lazy loader per chunk object: chunk bytes are mapped,
// hash-verified, decoded, and unmapped inside materialization, so the
// store's no-unverified-bytes guarantee holds chunk by chunk and a
// corrupt chunk surfaces as *CorruptObjectError from the analysis that
// touches it — never as silent garbage, and never at open time cost.
// vm may be nil to disable open-path instrumentation.
func (s *Store) OpenView(h Hash, vm *iwpp.ViewMetrics) (*iwpp.ArtifactView, error) {
	m, err := s.Manifest(h)
	if err != nil {
		return nil, err
	}
	parts, err := m.partHashes()
	if err != nil {
		return nil, err
	}
	if err := s.checkSize(h, m, parts); err != nil {
		return nil, err
	}
	if m.Kind == "blob" {
		d, err := s.mapObject(parts[0])
		if err != nil {
			return nil, err
		}
		if vm != nil && d.Mapped() {
			vm.BytesMapped.Add(uint64(d.Len()))
		}
		return iwpp.NewView(d.Bytes(), &iwpp.ViewOptions{Metrics: vm, Closer: d})
	}
	header, err := s.GetObject(parts[0])
	if err != nil {
		return nil, err
	}
	loads := make([]iwpp.ChunkLoad, len(parts)-1)
	for i, ph := range parts[1:] {
		loads[i] = func() ([]byte, func(), error) {
			d, err := s.mapObject(ph)
			if err != nil {
				return nil, nil, err
			}
			if vm != nil && d.Mapped() {
				vm.BytesMapped.Add(uint64(d.Len()))
			}
			return d.Bytes(), func() { d.Close() }, nil
		}
	}
	return iwpp.NewViewParts(header, loads, m.Size, &iwpp.ViewOptions{Metrics: vm})
}

// OpenViewInput is the CLI front door for an input argument that may be
// a file path or a store reference, opened as a lazy ArtifactView. Files are
// memory-mapped via OpenViewFile; "@<prefix>" refs resolve to a stored
// artifact's view; "<workload>@<scale>" refs resolve through the build
// index (building on first use) and view the stored result. A ref with
// no store configured is an error that names the fix.
func OpenViewInput(arg, dir string, vm *iwpp.ViewMetrics) (*iwpp.ArtifactView, error) {
	if !IsRef(arg) {
		v, err := iwpp.OpenViewFile(arg, &iwpp.ViewOptions{Metrics: vm})
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		return v, nil
	}
	if dir == "" {
		return nil, fmt.Errorf("store: %q is a store reference but no store is configured (pass -store DIR or set $%s)", arg, EnvDir)
	}
	s, err := Open(dir, nil)
	if err != nil {
		return nil, err
	}
	if rest, ok := strings.CutPrefix(arg, "@"); ok {
		h, err := s.FindArtifact(rest)
		if err != nil {
			return nil, err
		}
		return s.OpenView(h, vm)
	}
	name, scale, _ := strings.Cut(arg, "@")
	key := BuildKey{Workload: name, Scale: scale}
	res, err := s.Resolve(key, DefaultBuild(key))
	if err != nil {
		return nil, err
	}
	return s.OpenView(res.Hash, vm)
}
