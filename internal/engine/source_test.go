package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sequitur"
)

// lenFold counts events per chunk — a minimal fold for source plumbing.
type lenFold struct{}

func (lenFold) Chunk(_ int, a *Analysis) uint64 { return a.Length() }
func (lenFold) Merge(acc, next uint64) uint64   { return acc + next }

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

// TestMapSourceOrder: results arrive in chunk order regardless of
// scheduling.
func TestMapSourceOrder(t *testing.T) {
	snaps := testSnaps(t, 8)
	want, err := MapSource(SliceSource(snaps), 1, func(i int, a *Analysis) uint64 { return a.Length() * uint64(i+1) })
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := MapSource(SliceSource(snaps), workers, func(i int, a *Analysis) uint64 { return a.Length() * uint64(i+1) })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: %v, want %v", workers, got, want)
		}
	}
}

// TestSourceErrorDeterministic: with several failing chunks, the
// lowest-index error wins at every worker count.
func TestSourceErrorDeterministic(t *testing.T) {
	snaps := testSnaps(t, 6)
	src := failSource{snaps: snaps, bad: map[int]error{
		2: fmt.Errorf("chunk two broke"),
		4: fmt.Errorf("chunk four broke"),
	}}
	for _, workers := range []int{1, 2, 4, 8} {
		_, err := RunSource(src, workers, lenFold{})
		if err == nil || err.Error() != "chunk two broke" {
			t.Fatalf("workers=%d: err = %v, want lowest-index chunk error", workers, err)
		}
	}
}

// TestRunSourceEmpty: an empty source folds to the zero value without
// error.
func TestRunSourceEmpty(t *testing.T) {
	got, err := RunSource(SliceSource(nil), 4, lenFold{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("empty source folded to %d", got)
	}
}

// TestSourceErrorIsWrappable: errors flow through unchanged so callers
// can errors.As/Is on them.
func TestSourceErrorIsWrappable(t *testing.T) {
	sentinel := errors.New("sentinel")
	src := failSource{snaps: testSnaps(t, 3), bad: map[int]error{1: fmt.Errorf("wrapped: %w", sentinel)}}
	_, err := RunSource(src, 2, lenFold{})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}
