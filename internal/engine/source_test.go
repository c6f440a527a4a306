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
