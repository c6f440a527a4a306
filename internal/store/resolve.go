package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/collect"
	"repro/internal/interp"
	"repro/internal/wlc"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// BuildKey identifies one build: what ran and with which compression
// geometry. Two keys with equal IDs always produce byte-identical
// artifacts — the pipeline is deterministic in everything a key pins
// down (the artifact does not depend on worker count, but workers are
// part of the key so a recorded build describes exactly how it was
// made).
type BuildKey struct {
	// Workload names a bundled workload; Program is the hex SHA-256 of
	// WL source for ad-hoc programs. Exactly one should be set.
	Workload string `json:"workload,omitempty"`
	Program  string `json:"program,omitempty"`
	// Args are explicit main() arguments; Scale ("small", "medium",
	// "large") is the workload shorthand. Args win when both are set.
	Args  []int64 `json:"args,omitempty"`
	Scale string  `json:"scale,omitempty"`
	// Chunk and Workers are the build geometry (0 chunk = monolithic);
	// Format is "wpp1" or "wpp2" (the on-disk encoding version).
	Chunk   uint64 `json:"chunk"`
	Workers int    `json:"workers"`
	Format  string `json:"format"`
}

// normalize fills defaults so equivalent keys hash equally.
func (k BuildKey) normalize() BuildKey {
	if k.Format == "" {
		k.Format = "wpp1"
	}
	if k.Scale == "" && k.Workload != "" && len(k.Args) == 0 {
		k.Scale = "small"
	}
	return k
}

// ID renders the key canonically; the index is keyed by HashOf(ID).
func (k BuildKey) ID() string {
	args := make([]string, len(k.Args))
	for i, a := range k.Args {
		args[i] = strconv.FormatInt(a, 10)
	}
	return strings.Join([]string{
		"workload=" + k.Workload,
		"program=" + k.Program,
		"args=" + strings.Join(args, ","),
		"scale=" + k.Scale,
		"chunk=" + strconv.FormatUint(k.Chunk, 10),
		"workers=" + strconv.Itoa(k.Workers),
		"format=" + k.Format,
	}, "|")
}

func (k BuildKey) validate() error {
	if (k.Workload == "") == (k.Program == "") {
		return fmt.Errorf("store: build key must set exactly one of workload and program (have %q, %q)", k.Workload, k.Program)
	}
	switch k.Format {
	case "wpp1", "wpp2":
	default:
		return fmt.Errorf("store: build key: unknown format %q (want wpp1 or wpp2)", k.Format)
	}
	if k.Scale != "" {
		if _, err := scaleArgFor(workloads.Workload{}, k.Scale); err != nil {
			return err
		}
	}
	return nil
}

// indexEntry is the on-disk build-index record.
type indexEntry struct {
	Schema   string   `json:"schema"`
	Key      BuildKey `json:"key"`
	ID       string   `json:"id"`
	Artifact string   `json:"artifact"`
}

func (s *Store) indexPath(k BuildKey) string {
	h := HashOf([]byte(k.ID()))
	return filepath.Join(s.dir, "index", h.String()+".json")
}

// RecordBuild maps key to an artifact hash in the build index.
func (s *Store) RecordBuild(key BuildKey, artifact Hash) error {
	key = key.normalize()
	ent := indexEntry{Schema: ManifestSchema, Key: key, ID: key.ID(), Artifact: artifact.String()}
	data, err := json.MarshalIndent(ent, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding index entry: %w", err)
	}
	if err := writeFileAtomic(s.indexPath(key), append(data, '\n')); err != nil {
		return fmt.Errorf("store: writing index entry: %w", err)
	}
	return nil
}

// LookupBuild returns the artifact hash recorded for key, or
// ErrNotFound.
func (s *Store) LookupBuild(key BuildKey) (Hash, error) {
	key = key.normalize()
	data, err := os.ReadFile(s.indexPath(key))
	if err != nil {
		if os.IsNotExist(err) {
			return Hash{}, fmt.Errorf("store: build %s: %w", key.ID(), ErrNotFound)
		}
		return Hash{}, fmt.Errorf("store: reading index entry: %w", err)
	}
	var ent indexEntry
	if err := json.Unmarshal(data, &ent); err != nil {
		return Hash{}, fmt.Errorf("store: index entry: %w", err)
	}
	h, err := ParseHash(ent.Artifact)
	if err != nil {
		return Hash{}, fmt.Errorf("store: index entry: %w", err)
	}
	return h, nil
}

// BuildFunc produces the artifact for a build key on a cache miss.
type BuildFunc func() (iwpp.Artifact, error)

// ResolveResult is one Resolve outcome.
type ResolveResult struct {
	// Hash is the artifact's identity; Bytes its full encoding.
	Hash  Hash
	Bytes []byte
	// Hit reports whether the build index already had the key (no
	// build ran in this call or any it joined).
	Hit bool
}

// flightCall is one in-progress build that concurrent Resolve calls for
// the same key share.
type flightCall struct {
	done chan struct{}
	res  ResolveResult
	err  error
}

// Resolve is the lazy-build path: return the cached artifact for key,
// or build, store, and index one on miss. Concurrent calls for the same
// key collapse into a single build (in-process singleflight). A corrupt
// cached artifact is an error, never a silent rebuild — the store
// refuses to paper over damaged state.
func (s *Store) Resolve(key BuildKey, build BuildFunc) (ResolveResult, error) {
	key = key.normalize()
	if err := key.validate(); err != nil {
		return ResolveResult{}, err
	}
	id := key.ID()
	if h, err := s.LookupBuild(key); err == nil {
		data, err := s.GetArtifact(h)
		if err != nil {
			return ResolveResult{}, err
		}
		s.met.ResolveHits.Inc()
		return ResolveResult{Hash: h, Bytes: data, Hit: true}, nil
	} else if !errors.Is(err, ErrNotFound) {
		return ResolveResult{}, err
	}
	s.flightMu.Lock()
	if c, ok := s.flight[id]; ok {
		// Someone else is building this key; share their result (and
		// their failure — retrying here would double-build on every
		// deterministic error).
		s.flightMu.Unlock()
		<-c.done
		return c.res, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	s.flight[id] = c
	s.flightMu.Unlock()

	// Re-check the index now that we hold the flight slot: a build that
	// finished between our lookup and the slot claim would otherwise
	// run twice.
	if h, err := s.LookupBuild(key); err == nil {
		data, gerr := s.GetArtifact(h)
		if gerr == nil {
			s.met.ResolveHits.Inc()
			c.res = ResolveResult{Hash: h, Bytes: data, Hit: true}
		} else {
			c.err = gerr
		}
	} else if !errors.Is(err, ErrNotFound) {
		c.err = err
	} else {
		c.res, c.err = s.buildAndStore(key, build)
	}
	close(c.done)
	s.flightMu.Lock()
	delete(s.flight, id)
	s.flightMu.Unlock()
	return c.res, c.err
}

func (s *Store) buildAndStore(key BuildKey, build BuildFunc) (ResolveResult, error) {
	s.met.ResolveMisses.Inc()
	if build == nil {
		return ResolveResult{}, fmt.Errorf("store: no artifact recorded for %s and no builder supplied", key.ID())
	}
	s.met.ResolveBuilds.Inc()
	a, err := build()
	if err != nil {
		return ResolveResult{}, fmt.Errorf("store: building %s: %w", key.ID(), err)
	}
	v := uint8(iwpp.FormatV1)
	if key.Format == "wpp2" {
		v = iwpp.FormatV2
	}
	iwpp.SetVersion(a, v)
	h, _, err := s.PutArtifact(a)
	if err != nil {
		return ResolveResult{}, err
	}
	if err := s.RecordBuild(key, h); err != nil {
		return ResolveResult{}, err
	}
	data, err := s.GetArtifact(h)
	if err != nil {
		return ResolveResult{}, err
	}
	return ResolveResult{Hash: h, Bytes: data}, nil
}

// scaleArgFor maps a scale name to the workload's main() argument.
func scaleArgFor(w workloads.Workload, scale string) (int64, error) {
	switch scale {
	case "small":
		return w.Small, nil
	case "medium":
		return w.Medium, nil
	case "large":
		return w.Large, nil
	}
	return 0, fmt.Errorf("store: unknown scale %q (want small, medium, or large)", scale)
}

// DefaultBuild returns the standard lazy builder for a key naming a
// bundled workload: compile, run under path tracing with the batched
// sink, compress through wpp.New with the key's geometry — the same
// chain wppbuild uses, so lazily built artifacts are byte-identical to
// write-through ones. Keys naming an ad-hoc program (by source hash)
// cannot be lazily built — the store does not hold sources — and error.
func DefaultBuild(key BuildKey) BuildFunc {
	key = key.normalize()
	return func() (iwpp.Artifact, error) {
		if key.Workload == "" {
			return nil, fmt.Errorf("store: cannot lazily build program %s: store holds artifacts, not sources", key.Program)
		}
		w, err := workloads.ByName(key.Workload)
		if err != nil {
			return nil, err
		}
		args := key.Args
		if len(args) == 0 {
			arg, err := scaleArgFor(w, key.Scale)
			if err != nil {
				return nil, err
			}
			args = []int64{arg}
		}
		return BuildWorkloadArtifact(w.Source, args, key.Chunk, key.Workers)
	}
}

// BuildWorkloadArtifact compiles WL source and builds its artifact with
// collect.Run, the source-to-artifact chain wppbuild and the
// public facade also use.
func BuildWorkloadArtifact(source string, args []int64, chunk uint64, workers int) (iwpp.Artifact, error) {
	prog, err := wlc.Compile(source)
	if err != nil {
		return nil, err
	}
	t, err := collect.Run(prog, args, interp.Config{}, collect.Build(iwpp.BuildOptions{ChunkSize: chunk, Workers: workers}))
	if err != nil {
		return nil, err
	}
	return t.Artifact, nil
}
