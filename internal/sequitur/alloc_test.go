package sequitur

// Allocation regression guards for the arena layout. The contract the
// parallel builder's worker pool depends on: once a pooled grammar has
// grown its symbol slice, rule arena, and digram table to a stream's working
// set, replaying a stream of that size through Reset+Append touches the
// allocator zero times, and Snapshot stays at a constant handful of
// allocations regardless of rule count.

import (
	"math/rand"
	"testing"

	"repro/internal/obsv"
)

// testMetrics returns a fully populated hook set backed by a throwaway
// registry.
func testMetrics() Metrics {
	reg := obsv.NewRegistry()
	return Metrics{
		Terminals:    reg.Counter("terminals"),
		RulesCreated: reg.Counter("rules_created"),
		RulesReused:  reg.Counter("rules_reused"),
		DigramTable:  reg.Gauge("digram_table"),
	}
}

// allocStream is a WPP-shaped tape: hot patterns with occasional noise,
// large enough to force several symbol-slice and table growths on first contact.
func allocStream(n int) []uint64 {
	rng := rand.New(rand.NewSource(21))
	in := make([]uint64, n)
	for i := range in {
		switch {
		case rng.Intn(40) == 0:
			in[i] = uint64(100 + rng.Intn(20))
		default:
			in[i] = uint64([]uint64{1, 2, 1, 3}[i%4])
		}
	}
	return in
}

func TestSteadyStateAppendAllocatesNothing(t *testing.T) {
	in := allocStream(60000)
	g := New()
	replay := func() {
		g.Reset()
		for _, v := range in {
			g.Append(v)
		}
	}
	replay() // warm-up: grow the symbol slice, rule arena, and table past the working set
	allocs := testing.AllocsPerRun(5, replay)
	if allocs != 0 {
		t.Errorf("steady-state Reset+Append allocated %.1f times per replay of %d events, want 0", allocs, len(in))
	}
}

func TestSteadyStateAppendAllocatesNothingWithMetrics(t *testing.T) {
	// The nil-guarded metrics fast path must not reintroduce allocation
	// when instrumentation is on: obsv metrics are atomics all the way.
	in := allocStream(30000)
	g := New()
	g.SetMetrics(testMetrics())
	replay := func() {
		g.Reset()
		for _, v := range in {
			g.Append(v)
		}
	}
	replay()
	if allocs := testing.AllocsPerRun(5, replay); allocs != 0 {
		t.Errorf("instrumented steady-state Append allocated %.1f times per replay, want 0", allocs)
	}
}

func TestSnapshotAllocsBounded(t *testing.T) {
	in := allocStream(60000)
	g := New()
	for _, v := range in {
		g.Append(v)
	}
	rules := g.Stats().Rules
	var sink *Snapshot
	allocs := testing.AllocsPerRun(10, func() { sink = g.Snapshot() })
	_ = sink
	// One allocation each for the snapshot, the Rules slice, the shared
	// Sym backing array, the dense rule-discovery index, and the
	// reference-order worklist — independent of the rule count.
	const bound = 8
	if allocs > bound {
		t.Errorf("Snapshot of %d rules allocated %.1f times, want <= %d (allocs must not scale with rules)", rules, allocs, bound)
	}
}

// BenchmarkSequiturAppend* are the headline compressor benchmarks (the
// CI smoke step runs every benchmark matching "Sequitur"). Loopy is the
// WPP regime: a hot path pattern with noise. Run is a single repeated
// symbol, the overlap-handling worst case. Random is the incompressible
// regime where the digram table dominates. Pooled replays chunks through
// one Reset grammar, the parallel builder's steady state.

func benchAppend(b *testing.B, next func(i int) uint64) {
	b.Helper()
	b.ReportAllocs()
	g := New()
	for i := 0; i < b.N; i++ {
		g.Append(next(i))
	}
}

func BenchmarkSequiturAppendLoopy(b *testing.B) {
	pattern := []uint64{1, 2, 1, 3}
	benchAppend(b, func(i int) uint64 {
		if i%97 == 0 {
			return uint64(100 + i%13)
		}
		return pattern[i%4]
	})
}

func BenchmarkSequiturAppendRun(b *testing.B) {
	benchAppend(b, func(int) uint64 { return 7 })
}

func BenchmarkSequiturAppendRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	in := make([]uint64, b.N)
	for i := range in {
		in[i] = uint64(rng.Intn(64))
	}
	b.ResetTimer()
	benchAppend(b, func(i int) uint64 { return in[i] })
}

func BenchmarkSequiturAppendPooled(b *testing.B) {
	const chunk = 4096
	in := allocStream(chunk)
	b.ReportAllocs()
	g := New()
	for i := 0; i < b.N; i += chunk {
		g.Reset()
		for _, v := range in {
			g.Append(v)
		}
	}
}

func BenchmarkSequiturSnapshot(b *testing.B) {
	in := allocStream(1 << 16)
	g := New()
	for _, v := range in {
		g.Append(v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Snapshot()
	}
}
