package engine

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/sequitur"
)

// buildSnap compresses the symbols with SEQUITUR and returns the
// snapshot.
func buildSnap(t *testing.T, syms []uint64) *sequitur.Snapshot {
	t.Helper()
	g := sequitur.New()
	for _, v := range syms {
		g.Append(v)
	}
	snap := g.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	return snap
}

func randSyms(rng *rand.Rand, n, alphabet int) []uint64 {
	syms := make([]uint64, n)
	for i := range syms {
		syms[i] = uint64(rng.Intn(alphabet))
	}
	return syms
}

func TestAnalysisLengthAndUses(t *testing.T) {
	syms := []uint64{1, 2, 1, 2, 1, 2, 3}
	a := NewAnalysis(buildSnap(t, syms))
	if a.Length() != uint64(len(syms)) {
		t.Fatalf("Length() = %d, want %d", a.Length(), len(syms))
	}
	// Summing terminal occurrences weighted by rule uses must equal the
	// trace length: every trace position is covered exactly once.
	var total uint64
	a.Terminals(func(_, uses uint64) { total += uses })
	if total != uint64(len(syms)) {
		t.Fatalf("weighted terminal count %d, want %d", total, len(syms))
	}

	// Validate accepts rules the start rule does not reach; every rule
	// still gets its exact lengths, and the unreachable ones no uses.
	term := func(v uint64) sequitur.Sym { return sequitur.Sym{Rule: -1, Value: v} }
	ref := func(r int32) sequitur.Sym { return sequitur.Sym{Rule: r} }
	sn := &sequitur.Snapshot{Rules: [][]sequitur.Sym{
		{ref(1), ref(1), term(3)},   // R0 = R1 R1 c, reaches R1
		{term(1), term(2)},          // R1 = a b
		{ref(1), term(1), ref(3)},   // R2 = R1 a R3, unreachable
		{term(2), ref(4)},           // R3 = b R4, reachable only from R2
		{term(4), term(4), term(4)}, // R4 = d d d
	}}
	if err := sn.Validate(); err != nil {
		t.Fatal(err)
	}
	a = NewAnalysis(sn)
	for _, c := range []struct {
		name string
		got  any
		want any
	}{
		{"ExpLen", a.ExpLen, []uint64{5, 2, 7, 4, 3}},
		{"Uses", a.Uses, []uint64{1, 2, 0, 0, 0}},
		{"CumLens", a.CumLens, [][]uint64{{0, 2, 4, 5}, {0, 1, 2}, {0, 2, 3, 7}, {0, 1, 4}, {0, 1, 2, 3}}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Fatalf("unreachable rules: %s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if want, _ := sn.Weigh(nil); !reflect.DeepEqual(a.ExpLen, want) {
		t.Fatalf("ExpLen %v, want Weigh's %v", a.ExpLen, want)
	}
}

// TestCollectMatchesDirectSlicing checks Collect, and the rank collect
// of the window walk mapped back through the rank dictionary, with rule
// ends cached 0 to 40 wide, against slices of the trace.
func TestCollectMatchesDirectSlicing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	syms := randSyms(rng, 300, 4)
	for i := range syms {
		syms[i] = syms[i]*1000 + 7 // ranks 0..3 are not events
	}
	a := NewAnalysis(buildSnap(t, syms))
	a.rankTerminals()
	if !slices.IsSorted(a.dict) || len(a.dict) != 4 {
		t.Fatalf("rank dictionary %v: want the 4 distinct events, ascending", a.dict)
	}
	for trial := 0; trial < 100; trial++ {
		start := uint64(rng.Intn(len(syms)))
		length := uint64(rng.Intn(len(syms)-int(start)) + 1)
		got := a.Collect(0, start, length, nil)
		want := syms[start : start+length]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Collect(0,%d,%d) = %v, want %v", start, length, got, want)
		}
		k := rng.Intn(41)
		got = got[:0]
		ranks, _ := newRankEnds(a, k).collect(0, 0, start, length, nil)
		for _, r := range ranks {
			got = append(got, a.dict[r])
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rank collect(0,%d,%d) with ends %d wide maps to %v, want %v", start, length, k, got, want)
		}
	}
}

// windowKey is CountWindows' key form: each symbol as 8 big-endian bytes.
func windowKey(window []uint64) string {
	var key []byte
	for _, v := range window {
		key = binary.BigEndian.AppendUint64(key, v)
	}
	return string(key)
}

// scanWindows counts windows by brute force on the expanded sequence.
func scanWindows(syms []uint64, l int) map[string]uint64 {
	counts := make(map[string]uint64)
	for i := 0; i+l <= len(syms); i++ {
		counts[windowKey(syms[i:i+l])]++
	}
	return counts
}

func TestCountWindowsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 17, 250} {
		syms := randSyms(rng, n, 3)
		a := NewAnalysis(buildSnap(t, syms))
		for l := 1; l <= 6; l++ {
			got := make(map[string]uint64)
			a.CountWindows(l, got)
			want := scanWindows(syms, l)
			if len(want) == 0 {
				want = map[string]uint64{}
			}
			if len(got) == 0 {
				got = map[string]uint64{}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d l=%d: CountWindows disagrees with scan: got %d keys, want %d", n, l, len(got), len(want))
			}
		}
	}
}

// TestRunEmptyReturnsZero: an analysis that sums chunk lengths through
// EachChunk reads zero over zero chunks, including when more workers are
// asked for than there are chunks.
func TestRunEmptyReturnsZero(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 16} {
		var mu sync.Mutex
		var total uint64
		err := EachChunk(SliceSource(nil), workers, func(_ int, sn *sequitur.Snapshot) error {
			mu.Lock()
			defer mu.Unlock()
			var err error
			total, err = AddLength(total, NewAnalysis(sn).Length())
			return err
		})
		if err != nil || total != 0 {
			t.Fatalf("workers=%d: summed length over zero chunks = %d, %v; want 0, nil", workers, total, err)
		}
	}
}

func TestWorkersNormalization(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(5); got != 5 {
		t.Fatalf("Workers(5) = %d", got)
	}
}

func TestBoundaryRegions(t *testing.T) {
	syms := randSyms(rand.New(rand.NewSource(5)), 50, 4)
	a := NewAnalysis(buildSnap(t, syms))
	b := a.Boundary(7)
	if b.Length != 50 {
		t.Fatalf("Boundary.Length = %d", b.Length)
	}
	if !reflect.DeepEqual(b.Head, syms[:7]) || !reflect.DeepEqual(b.Tail, syms[43:]) {
		t.Fatalf("Boundary regions wrong: head %v tail %v", b.Head, b.Tail)
	}
	// Width beyond the chunk clamps to the whole chunk.
	wide := a.Boundary(100)
	if !reflect.DeepEqual(wide.Head, syms) || !reflect.DeepEqual(wide.Tail, syms) {
		t.Fatal("oversized Boundary width must clamp to chunk length")
	}
}

// TestCrossingWindowsMatchesScan splits one sequence into chunks and
// checks that per-chunk CountWindows plus CrossingWindows reproduces the
// monolithic window counts exactly — the engine's chunk-seam invariant.
func TestCrossingWindowsMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	syms := randSyms(rng, 200, 3)
	cuts := [][]int{
		{100},
		{50, 120},
		{1, 2, 3, 199},
		{64, 128, 192},
	}
	for _, cut := range cuts {
		var snaps []*sequitur.Snapshot
		prev := 0
		for _, c := range append(cut, len(syms)) {
			snaps = append(snaps, buildSnap(t, syms[prev:c]))
			prev = c
		}
		for l := 2; l <= 6; l++ {
			counts := make(map[string]uint64)
			var bounds []Boundary
			for _, snap := range snaps {
				a := NewAnalysis(snap)
				a.CountWindows(l, counts)
				bounds = append(bounds, a.Boundary(l-1))
			}
			CrossingWindows(bounds, l, func(window []uint64, from int) {
				if from <= l && l <= len(window) {
					counts[windowKey(window[:l])]++
				}
			})
			want := scanWindows(syms, l)
			if !reflect.DeepEqual(counts, want) {
				t.Fatalf("cuts=%v l=%d: chunked counts disagree with scan", cut, l)
			}
		}
	}
}
