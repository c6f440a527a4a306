package engine

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
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
// with the same typed error. Chunk must be safe for concurrent calls and
// may be called more than once per index. Its snapshots are shared (a
// view's among all its analyses), so callers only read them.
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
// a lock. Once fn returns, a view keeps the chunk only while it holds it.
func EachChunk(src Source, workers int, fn func(i int, sn *sequitur.Snapshot) error) error {
	return each(src.NumChunks(), workers, src.Chunk, fn)
}

// EachAnalysis is EachChunk handing fn each chunk's Analysis (Hold).
func EachAnalysis(src Source, workers int, fn func(i int, a *Analysis) error) error {
	h := Hold(src)
	return each(h.NumChunks(), workers, h.Analysis, fn)
}

// each is EachChunk's loop: fn on load(i) for every index i below n.
func each[T any](n, workers int, load func(i int) (T, error), fn func(i int, c T) error) error {
	errs := make([]error, n)
	run := func(i int) {
		c, err := load(i)
		if err == nil {
			err = fn(i, c)
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

// Hold returns the Chunks that holds src's chunks: src's own (Held), as
// a view's, or else a new one over src for the caller to keep.
func Hold(src Source) *Chunks {
	if h, ok := src.(interface{ Held() *Chunks }); ok {
		return h.Held()
	}
	return NewChunks(src.NumChunks(), src.Chunk)
}

// Chunks holds a source's chunk grammars and their Analyses for every
// chunk loop that asks it: every chunk of a source with at most
// Workers(0) chunks, else the Workers(0) used last. A held chunk is
// loaded once and its Analysis built on first request, so a loop that
// reads only grammars builds none. A failed load is not held, so each
// request loads it again; concurrent requests for a chunk share a load.
type Chunks struct {
	n    int
	load func(i int) (*sequitur.Snapshot, error)
	mu   sync.Mutex
	held []*held // least recently used first
}

type held struct {
	i           int
	load, build sync.Once
	sn          *sequitur.Snapshot
	a           *Analysis
	err         error
}

// NewChunks holds the n chunks load returns, safe for concurrent calls.
func NewChunks(n int, load func(i int) (*sequitur.Snapshot, error)) *Chunks {
	return &Chunks{n: n, load: load}
}

// Held returns c, which holds its own chunks.
func (c *Chunks) Held() *Chunks { return c }

// NumChunks implements Source.
func (c *Chunks) NumChunks() int { return c.n }

// Chunk implements Source.
func (c *Chunks) Chunk(i int) (*sequitur.Snapshot, error) {
	h := c.get(i)
	return h.sn, h.err
}

// Analysis returns chunk i's Analysis, built once while it is held.
func (c *Chunks) Analysis(i int) (*Analysis, error) {
	h := c.get(i)
	if h.err == nil {
		h.build.Do(func() { h.a = NewAnalysis(h.sn) })
	}
	return h.a, h.err
}

// get returns chunk i, loaded, as the most recently used.
func (c *Chunks) get(i int) *held {
	c.mu.Lock()
	k := slices.IndexFunc(c.held, func(h *held) bool { return h.i == i })
	if k < 0 {
		k = len(c.held)
		c.held = append(c.held, &held{i: i})
	}
	h := c.held[k]
	c.held = append(slices.Delete(c.held, k, k+1), h)
	if len(c.held) > Workers(0) {
		c.held = slices.Delete(c.held, 0, 1)
	}
	c.mu.Unlock()
	h.load.Do(func() { h.sn, h.err = c.load(i) })
	if h.err != nil {
		c.mu.Lock()
		c.held = slices.DeleteFunc(c.held, func(o *held) bool { return o == h })
		c.mu.Unlock()
	}
	return h
}

// Release drops every chunk held.
func (c *Chunks) Release() {
	c.mu.Lock()
	c.held = nil
	c.mu.Unlock()
}
