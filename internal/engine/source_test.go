package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/sequitur"
)

// failSource serves real snapshots but fails on the marked indices.
type failSource struct {
	snaps []*sequitur.Snapshot
	bad   map[int]error
}

func (s failSource) NumChunks() int { return len(s.snaps) }
func (s failSource) Chunk(i int) (*sequitur.Snapshot, error) {
	if err := s.bad[i]; err != nil {
		return nil, err
	}
	return s.snaps[i], nil
}

func testSnaps(t *testing.T, n int) []*sequitur.Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	snaps := make([]*sequitur.Snapshot, n)
	for i := range snaps {
		snaps[i] = buildSnap(t, randSyms(rng, 50+10*i, 4))
	}
	return snaps
}

// TestSourceErrorDeterministic: with several failing chunks, failing to
// load or failing in fn, the lowest-index error wins at every worker
// count, and every chunk is still visited.
func TestSourceErrorDeterministic(t *testing.T) {
	snaps := testSnaps(t, 6)
	src := failSource{snaps: snaps, bad: map[int]error{
		2: fmt.Errorf("chunk two broke"),
		4: fmt.Errorf("chunk four broke"),
	}}
	for _, fnFails := range []int{3, 1} {
		want := "chunk two broke"
		if fnFails < 2 {
			want = fmt.Sprintf("fn failed on chunk %d", fnFails)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			var visited atomic.Int64
			err := EachChunk(src, workers, func(i int, _ *sequitur.Snapshot) error {
				visited.Add(1)
				if i == fnFails {
					return fmt.Errorf("fn failed on chunk %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != want {
				t.Fatalf("fn fails on %d, workers=%d: err = %v, want %q", fnFails, workers, err, want)
			}
			if got := visited.Load(); got != int64(len(snaps)-len(src.bad)) {
				t.Fatalf("fn fails on %d, workers=%d: fn ran on %d chunks, want every loaded chunk", fnFails, workers, got)
			}
		}
	}
}

// TestRunSourceEmpty: an empty source never calls fn and succeeds, at
// every worker count.
func TestRunSourceEmpty(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		err := EachChunk(SliceSource(nil), workers, func(int, *sequitur.Snapshot) error {
			t.Fatal("fn called on an empty source")
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestSourceErrorIsWrappable: errors flow through unchanged so callers
// can errors.As/Is on them.
func TestSourceErrorIsWrappable(t *testing.T) {
	sentinel := errors.New("sentinel")
	src := failSource{snaps: testSnaps(t, 3), bad: map[int]error{1: fmt.Errorf("wrapped: %w", sentinel)}}
	err := EachChunk(src, 2, func(int, *sequitur.Snapshot) error { return nil })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

// TestChunksHold pins what a Chunks keeps. With no more chunks than
// Workers(0) it loads each chunk once for any number of loops, and
// builds an Analysis only when one is asked for. A chunk that fails to
// load is never held: it loads again on every request and fails the
// same way. Release drops everything. With more chunks, it holds the
// Workers(0) used last.
func TestChunksHold(t *testing.T) {
	w := Workers(0)
	snaps := testSnaps(t, w+3)
	bad := w - 1 // fails to load
	boom := errors.New("boom")
	var loads atomic.Int64
	load := func(i int) (*sequitur.Snapshot, error) {
		loads.Add(1)
		if i == bad {
			return nil, boom
		}
		return snaps[i], nil
	}

	few := NewChunks(w, load)
	for pass := 0; pass < 3; pass++ {
		if err := EachChunk(few, 2, func(int, *sequitur.Snapshot) error { return nil }); !errors.Is(err, boom) {
			t.Fatalf("pass %d: err = %v, want the failed chunk's", pass, err)
		}
	}
	if got := loads.Swap(0); got != int64(w+2) {
		t.Fatalf("three loops over %d chunks loaded %d, want each good one once and the failing one 3 times", w, got)
	}
	for i := 0; i < bad; i++ {
		if few.get(i).a != nil {
			t.Fatalf("chunk %d has an Analysis no loop asked for", i)
		}
	}
	if _, err := few.Analysis(bad); !errors.Is(err, boom) {
		t.Fatalf("the failed chunk's Analysis: err = %v", err)
	}
	if w > 1 {
		a, _ := few.Analysis(0)
		if b, _ := few.Analysis(0); a == nil || b != a {
			t.Fatal("two requests for chunk 0 got different Analyses")
		}
	}
	loads.Store(0)
	few.Release()
	few.Chunk(0)
	if got := loads.Load(); got != 1 {
		t.Fatalf("a released chunk loaded %d times, want 1", got)
	}

	many := NewChunks(len(snaps), func(i int) (*sequitur.Snapshot, error) {
		loads.Add(1)
		return snaps[i], nil
	})
	for i := range snaps {
		many.Chunk(i)
	}
	loads.Store(0)
	for i := len(snaps) - 1; i >= 0; i-- {
		many.Chunk(i)
	}
	if got := loads.Load(); got != 3 {
		t.Fatalf("a backward pass over %d chunks, %d held, loaded %d, want 3", len(snaps), w, got)
	}
}
