package engine

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/sequitur"
)

// Source is a sequence of chunk grammars an analysis can visit without
// requiring them all in memory at once. The in-memory artifacts (a
// monolithic WPP is one chunk) return their grammars as they are; lazy
// views materialize and validate each chunk inside the Chunk call, so a
// corrupt or unreadable chunk surfaces as an error from the analysis
// instead of failing the open.
//
// Every chunk a Source returns is a well-formed, acyclic grammar whose
// every rule's expansion length fits in 64 bits
// (sequitur.Snapshot.Validate accepts it), so analyses may recurse over
// its rules and count its events in a uint64. A view refuses a chunk
// that breaks this with a typed error (sequitur.ErrExpansionOverflow for
// the length) instead of handing analyses a wrapped count. The chunks
// together may still hold more events than a uint64 counts, so an
// analysis that sums their lengths does so with AddLength, which fails
// with the same typed error. Chunk must be safe for concurrent calls on
// distinct indices and may be called more than once per index;
// implementations return a snapshot the caller may read freely.
type Source interface {
	// NumChunks reports the number of chunk grammars.
	NumChunks() int
	// Chunk returns chunk i's grammar.
	Chunk(i int) (*sequitur.Snapshot, error)
}

// AddLength adds a chunk's expansion length n to total, the length of
// the chunks before it. A sum that does not fit in 64 bits is an error
// wrapping sequitur.ErrExpansionOverflow.
func AddLength(total, n uint64) (uint64, error) {
	sum, carry := bits.Add64(total, n, 0)
	if carry != 0 {
		return 0, fmt.Errorf("chunk lengths: %w", sequitur.ErrExpansionOverflow)
	}
	return sum, nil
}

// SliceSource adapts an in-memory snapshot sequence to Source. Chunk
// never fails.
type SliceSource []*sequitur.Snapshot

// NumChunks implements Source.
func (s SliceSource) NumChunks() int { return len(s) }

// Chunk implements Source.
func (s SliceSource) Chunk(i int) (*sequitur.Snapshot, error) { return s[i], nil }

// Workers normalizes a worker-count option: non-positive means
// GOMAXPROCS.
func Workers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// EachChunk loads every chunk of src and calls fn on it, on `workers`
// goroutines (normalized by Workers; one worker runs inline), in no
// fixed order. It is the one chunk loop behind every analysis, view scan
// and verifier. Every chunk is visited even after a failure, and the
// error returned is the lowest-indexed chunk's — from loading it or from
// fn — so it is deterministic at every worker count. fn may run
// concurrently with itself: it writes only state owned by index i, or
// guards what the chunks share, such as an analysis's accumulator, with
// a lock. A view's chunk grammar is garbage once fn returns, so an
// analysis that adds each chunk's result to one accumulator inside fn
// holds one chunk per worker, plus the accumulator.
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
