package sequitur

// The batch-width suite: Append is AppendBatch on a one-element slice,
// so every test here feeds one stream at width 1 and at wider batch
// geometries and holds each grammar to the oracle's snapshot
// (oracle_test.go). Between the widths, Verify outcomes and Stats are
// compared rather than Verify being required nil: seam slack is a
// property of the algorithm on a stream, and batching must reproduce
// it exactly, not "fix" it.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// oracleSnapshot feeds vs to a fresh oracle and returns its snapshot.
func oracleSnapshot(vs []uint64, opts Options) *Snapshot {
	o := newOracleWithOptions(opts)
	for _, v := range vs {
		o.Append(v)
	}
	return o.Snapshot()
}

// diffStreams feeds vs one value at a time and in the given splits,
// then asserts both grammars snapshot as the oracle does and agree with
// each other on their Verify outcome and stats.
func diffStreams(t *testing.T, vs []uint64, splits []int, opts Options) {
	t.Helper()
	g1 := NewWithOptions(opts)
	for _, v := range vs {
		g1.Append(v)
	}
	gw := NewWithOptions(opts)
	lo := 0
	for _, w := range splits {
		gw.AppendBatch(vs[lo : lo+w])
		lo += w
	}
	if lo != len(vs) {
		t.Fatalf("splits cover %d of %d values", lo, len(vs))
	}
	if a, b := fmt.Sprint(g1.Verify()), fmt.Sprint(gw.Verify()); a != b {
		t.Fatalf("Verify outcomes differ: width 1=%v batched=%v", a, b)
	}
	want := oracleSnapshot(vs, opts)
	if !reflect.DeepEqual(g1.Snapshot(), want) {
		t.Fatalf("width-1 snapshot diverges from the oracle (n=%d)", len(vs))
	}
	if !reflect.DeepEqual(gw.Snapshot(), want) {
		t.Fatalf("batched snapshot diverges from the oracle (n=%d)", len(vs))
	}
	if g1.Stats() != gw.Stats() {
		t.Fatalf("stats differ: %+v vs %+v", g1.Stats(), gw.Stats())
	}
}

// fixedSplits cuts n into batches of width w (the last may be shorter).
func fixedSplits(n, w int) []int {
	var splits []int
	for rem := n; rem > 0; rem -= w {
		splits = append(splits, min(w, rem))
	}
	return splits
}

// randomSplits cuts n into random batch widths in [1, maxW].
func randomSplits(rng *rand.Rand, n, maxW int) []int {
	var splits []int
	for rem := n; rem > 0; {
		w := min(1+rng.Intn(maxW), rem)
		splits = append(splits, w)
		rem -= w
	}
	return splits
}

// TestBatchDifferentialRandom: random streams over small alphabets
// (maximal digram collision pressure), random batch boundaries.
func TestBatchDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(2000)
		alpha := 1 + rng.Intn(12)
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = uint64(rng.Intn(alpha))
		}
		diffStreams(t, vs, randomSplits(rng, n, 64), Options{})
	}
}

// TestBatchDifferentialPatterns pins the structured shapes that stress
// specific engine paths: identical runs (overlap handling), period-2
// and period-4 repetition (deep rule nesting and rule reuse), and a
// stream long enough to grow the symbol slice and rehash the digram table inside
// one batch.
func TestBatchDifferentialPatterns(t *testing.T) {
	patterns := map[string][]uint64{}
	run := make([]uint64, 500)
	for i := range run {
		run[i] = 7
	}
	patterns["identical-run"] = run
	ab := make([]uint64, 600)
	for i := range ab {
		ab[i] = uint64(i % 2)
	}
	patterns["period-2"] = ab
	abcd := make([]uint64, 800)
	for i := range abcd {
		abcd[i] = uint64(i % 4)
	}
	patterns["period-4"] = abcd
	big := make([]uint64, 40000)
	rng := rand.New(rand.NewSource(7))
	for i := range big {
		if rng.Intn(40) == 0 {
			big[i] = uint64(100 + rng.Intn(20))
		} else {
			big[i] = []uint64{1, 2, 1, 3}[i%4]
		}
	}
	patterns["grown"] = big
	for name, vs := range patterns {
		t.Run(name, func(t *testing.T) {
			// One whole-stream batch and a fine split both must match.
			diffStreams(t, vs, []int{len(vs)}, Options{})
			diffStreams(t, vs, randomSplits(rand.New(rand.NewSource(3)), len(vs), 5), Options{})
		})
	}
}

// TestBatchMixedWithScalar interleaves Append and AppendBatch calls on
// one grammar and holds the result to the oracle.
func TestBatchMixedWithScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vs := make([]uint64, 3000)
	for i := range vs {
		vs[i] = uint64(rng.Intn(6))
	}
	gm := New()
	for lo := 0; lo < len(vs); {
		if rng.Intn(2) == 0 {
			gm.Append(vs[lo])
			lo++
			continue
		}
		hi := min(lo+1+rng.Intn(40), len(vs))
		gm.AppendBatch(vs[lo:hi])
		lo = hi
	}
	if err := gm.Verify(); err != nil {
		t.Fatalf("mixed feed: %v", err)
	}
	if !reflect.DeepEqual(gm.Snapshot(), oracleSnapshot(vs, Options{})) {
		t.Fatal("mixed-feed snapshot diverges from the oracle")
	}
	if st := gm.Stats(); st.Terminals != uint64(len(vs)) {
		t.Fatalf("mixed feed consumed %d of %d terminals", st.Terminals, len(vs))
	}
}

// TestBatchEdgeCases: the empty batch is a no-op; an out-of-range
// terminal panics before any element of the batch is appended.
func TestBatchEdgeCases(t *testing.T) {
	g := New()
	g.AppendBatch(nil)
	g.AppendBatch([]uint64{})
	if st := g.Stats(); st.Terminals != 0 {
		t.Fatalf("empty batches appended %d terminals", st.Terminals)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AppendBatch accepted a terminal >= MaxTerminal")
			}
		}()
		g.AppendBatch([]uint64{1, 2, MaxTerminal})
	}()
	// The batch was rejected whole: not even the valid prefix landed.
	if st := g.Stats(); st.Terminals != 0 {
		t.Fatalf("rejected batch still appended %d terminals", st.Terminals)
	}
}

// TestBatchMetricsParity: instrumented counters must agree between
// width 1 and one whole-stream batch after the stream completes (a
// batch updates them once, not per event).
func TestBatchMetricsParity(t *testing.T) {
	vs := allocStream(5000)
	g1 := New()
	g1.SetMetrics(testMetrics())
	for _, v := range vs {
		g1.Append(v)
	}
	gb := New()
	gb.SetMetrics(testMetrics())
	gb.AppendBatch(vs)
	for name, pair := range map[string][2]uint64{
		"terminals":     {g1.metrics.Terminals.Value(), gb.metrics.Terminals.Value()},
		"rules_created": {g1.metrics.RulesCreated.Value(), gb.metrics.RulesCreated.Value()},
		"rules_reused":  {g1.metrics.RulesReused.Value(), gb.metrics.RulesReused.Value()},
		"digram_table":  {uint64(g1.metrics.DigramTable.Value()), uint64(gb.metrics.DigramTable.Value())},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s diverges: width 1=%d batch=%d", name, pair[0], pair[1])
		}
	}
}

// TestSteadyStateAppendBatchAllocatesNothing is the wide-batch twin of
// the Append alloc guard: once warmed, Reset+AppendBatch is 0 B/event.
func TestSteadyStateAppendBatchAllocatesNothing(t *testing.T) {
	in := allocStream(60000)
	g := New()
	replay := func() {
		g.Reset()
		for lo := 0; lo < len(in); lo += 4096 {
			g.AppendBatch(in[lo:min(lo+4096, len(in))])
		}
	}
	replay() // warm-up: grow the symbol slice, rule arena, and table past the working set
	allocs := testing.AllocsPerRun(5, replay)
	if allocs != 0 {
		t.Errorf("steady-state Reset+AppendBatch allocated %.1f times per replay of %d events, want 0", allocs, len(in))
	}
}

// FuzzBatchParity lets the fuzzer pick both the stream and the batch
// geometry; any divergence from the oracle, or between width 1 and the
// chosen width, fails.
func FuzzBatchParity(f *testing.F) {
	f.Add([]byte{1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1}, uint8(3))
	f.Add([]byte{1, 2, 3, 1, 2, 3, 1, 2, 3}, uint8(1))
	f.Add([]byte{9, 9, 9, 9, 9, 9}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		if len(data) == 0 {
			return
		}
		vs := make([]uint64, len(data))
		for i, b := range data {
			vs[i] = uint64(b % 16)
		}
		diffStreams(t, vs, fixedSplits(len(vs), int(width%64)+1), Options{})
	})
}
