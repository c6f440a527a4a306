package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/sequitur"
)

// Source is a sequence of chunk grammars an analysis can fold over
// without requiring them all in memory at once. The in-memory artifacts
// (a monolithic WPP is one chunk) return their grammars as they are;
// lazy views materialize and validate each chunk inside the Chunk call,
// so a corrupt or unreadable chunk surfaces as an error from the fold
// instead of failing the open.
//
// Every chunk a Source returns is a well-formed, acyclic grammar
// (sequitur.Snapshot.Validate accepts it), so analyses may recurse over
// its rules. Chunk must be safe for concurrent calls on distinct indices
// and may be called more than once per index; implementations return a
// snapshot the caller may read freely.
type Source interface {
	// NumChunks reports the number of chunk grammars.
	NumChunks() int
	// Chunk returns chunk i's grammar.
	Chunk(i int) (*sequitur.Snapshot, error)
}

// SliceSource adapts an in-memory snapshot sequence to Source. Chunk
// never fails.
type SliceSource []*sequitur.Snapshot

// NumChunks implements Source.
func (s SliceSource) NumChunks() int { return len(s) }

// Chunk implements Source.
func (s SliceSource) Chunk(i int) (*sequitur.Snapshot, error) { return s[i], nil }

// EachChunk loads every chunk of src and calls fn on it, on `workers`
// goroutines (normalized by Workers; one worker runs inline). It is the
// one chunk-parallel loop behind every fold, view scan and verifier.
// Every chunk is visited even after a failure, and the error returned is
// the lowest-indexed chunk's — from loading it or from fn — so it is
// deterministic at every worker count. fn must only write state owned by
// index i.
func EachChunk(src Source, workers int, fn func(i int, sn *sequitur.Snapshot) error) error {
	n := src.NumChunks()
	errs := make([]error, n)
	run := func(i int) {
		sn, err := src.Chunk(i)
		if err == nil {
			err = fn(i, sn)
		}
		errs[i] = err
	}
	if workers = Workers(workers); workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// MapSource builds each chunk's Analysis and applies fn to it via
// EachChunk, returning results in chunk order. fn must only write state
// owned by index i. A chunk that fails to load fails the map with the
// lowest-indexed failing chunk's error.
func MapSource[R any](src Source, workers int, fn func(i int, a *Analysis) R) ([]R, error) {
	out := make([]R, src.NumChunks())
	err := EachChunk(src, workers, func(i int, sn *sequitur.Snapshot) error {
		out[i] = fn(i, NewAnalysis(sn))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RunSource executes a Fold over a Source: per-chunk passes in parallel
// via MapSource, then a sequential in-order merge. It is Run lifted to
// fallible chunk access; over a SliceSource the two are identical.
func RunSource[R any](src Source, workers int, f Fold[R]) (R, error) {
	parts, err := MapSource(src, workers, f.Chunk)
	if err != nil {
		var zero R
		return zero, err
	}
	if len(parts) == 0 {
		var zero R
		return zero, nil
	}
	acc := parts[0]
	for _, p := range parts[1:] {
		acc = f.Merge(acc, p)
	}
	return acc, nil
}
