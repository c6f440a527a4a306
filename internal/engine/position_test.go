package engine

import (
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/sequitur"
)

// chunked compresses syms as one grammar per size symbols (one grammar
// for size 0) and indexes the result.
func chunked(t *testing.T, syms []uint64, size int) *Positions {
	t.Helper()
	var src SliceSource
	if size == 0 {
		src = SliceSource{buildSnap(t, syms)}
	}
	for lo := 0; size > 0 && lo < len(syms); lo += size {
		src = append(src, buildSnap(t, syms[lo:min(lo+size, len(syms))]))
	}
	p, err := NewPositions(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// firstDiffOracle is the first position where a and b differ, or the
// shorter length.
func firstDiffOracle(a, b []uint64) uint64 {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return uint64(i)
		}
	}
	return uint64(n)
}

// TestFirstDiff covers identical traces, one injected divergence at the
// first, a middle, a block-seam and the last event, and traces of
// different lengths in both orders, with each side monolithic or
// chunked — a monolithic trace against its chunked twin is identical.
func TestFirstDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := randSyms(rng, 3*diffBlock+17, 3)
	n := len(base)
	flip := func(i int) []uint64 {
		out := append([]uint64(nil), base...)
		out[i] = 3 // outside base's alphabet
		return out
	}
	cases := []struct {
		name string
		b    []uint64
	}{
		{"identical", base},
		{"first", flip(0)},
		{"middle", flip(n / 2)},
		{"block seam", flip(diffBlock)},
		{"before seam", flip(diffBlock - 1)},
		{"last", flip(n - 1)},
		{"prefix", base[:n-5]},
		{"one block", base[:diffBlock]},
		{"empty", nil},
	}
	sizes := []int{0, 1000, 4096}
	var bases []*Positions
	for _, size := range sizes {
		bases = append(bases, chunked(t, base, size))
	}
	for _, c := range cases {
		want := firstDiffOracle(base, c.b)
		for k, pa := range bases {
			sa := sizes[k]
			for _, sb := range []int{0, 333, 5000} {
				pb := chunked(t, c.b, sb)
				// Both orders: the walked side and the sliced side swap.
				for _, swap := range []bool{false, true} {
					a, b := pa, pb
					if swap {
						a, b = b, a
					}
					got, err := FirstDiff(a, b)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s (chunks %d/%d, swap %v): FirstDiff = %d, want %d", c.name, sa, sb, swap, got, want)
					}
					identical := got == a.Len() && got == b.Len()
					if identical != (c.name == "identical") {
						t.Fatalf("%s (chunks %d/%d, swap %v): identical = %v", c.name, sa, sb, swap, identical)
					}
				}
			}
		}
	}
}

// TestFirstDiffSameIndex compares a trace with itself through one
// shared index.
func TestFirstDiffSameIndex(t *testing.T) {
	p := chunked(t, randSyms(rand.New(rand.NewSource(9)), 2*diffBlock+1, 4), 700)
	if got, err := FirstDiff(p, p); err != nil || got != p.Len() {
		t.Fatalf("FirstDiff(p, p) = %d, %v; want %d", got, err, p.Len())
	}
}

// TestPositionsChunkErrors: a chunk that fails to load fails the index
// build, and one that fails later fails the query that touches it.
func TestPositionsChunkErrors(t *testing.T) {
	snaps := testSnaps(t, 4)
	boom := errors.New("boom")
	if _, err := NewPositions(failSource{snaps: snaps, bad: map[int]error{2: boom}}); !errors.Is(err, boom) {
		t.Fatalf("NewPositions error = %v", err)
	}
	src := &failSource{snaps: snaps, bad: map[int]error{}}
	p, err := NewPositions(src)
	if err != nil {
		t.Fatal(err)
	}
	src.bad[3] = boom
	if _, err := p.EventAt(p.Len() - 1); !errors.Is(err, boom) {
		t.Fatalf("EventAt error = %v", err)
	}
	if _, err := p.Slice(0, p.Len(), nil); !errors.Is(err, boom) {
		t.Fatalf("Slice error = %v", err)
	}
	q, _ := NewPositions(SliceSource(snaps))
	if _, err := FirstDiff(q, p); !errors.Is(err, boom) {
		t.Fatalf("FirstDiff error = %v", err)
	}
}

// TestPositionsEmpty: a source with no chunks, or with an empty
// grammar, has length 0 and rejects every position.
func TestPositionsEmpty(t *testing.T) {
	for _, src := range []Source{SliceSource{}, SliceSource{&sequitur.Snapshot{}}} {
		p, err := NewPositions(src)
		if err != nil {
			t.Fatal(err)
		}
		if p.Len() != 0 {
			t.Fatalf("Len = %d", p.Len())
		}
		if _, err := p.EventAt(0); err == nil {
			t.Fatal("EventAt(0) on an empty trace accepted")
		}
		if got, err := p.Slice(0, 0, nil); err != nil || len(got) != 0 {
			t.Fatalf("empty Slice = %v, %v", got, err)
		}
		if got, err := FirstDiff(p, p); err != nil || got != 0 {
			t.Fatalf("FirstDiff on empty traces = %d, %v", got, err)
		}
	}
}

// TestPositionsConcurrent queries one index from several goroutines at
// once; each answer must match the trace (run under -race, this also
// checks the shared chunk cache).
func TestPositionsConcurrent(t *testing.T) {
	syms := randSyms(rand.New(rand.NewSource(3)), 5000, 5)
	p := chunked(t, syms, 300)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for q := 0; q < 200; q++ {
				from := rng.Intn(len(syms))
				n := rng.Intn(min(len(syms)-from, 700) + 1)
				got, err := p.Slice(uint64(from), uint64(n), nil)
				if err != nil || !slices.Equal(got, syms[from:from+n]) {
					t.Errorf("Slice(%d,%d) = %v, differs from the trace", from, n, err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}
