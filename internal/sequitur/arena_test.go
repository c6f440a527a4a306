package sequitur

// White-box tests of the symbol arena: the 16-byte layout, the batch
// reservation bound stated in arena.go, the panic that replaces a move
// of the slice inside a reservation, and the recycling of a rule slot —
// the slot a nonterminal's digram key names — within one cascade.

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
)

func TestSymbolIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(symbol{}); n != 16 {
		t.Fatalf("symbol is %d bytes, want 16", n)
	}
}

// peakBound is the bound arena.go proves on the handles a batch of n
// terminals can use on a grammar with rhs RHS symbols: live symbols at
// most 1.5 × (rhs + n) + 4, plus the nil handle. It is tighter than the
// reservation, which adds slack on top.
func peakBound(rhs, n int) uint32 { return uint32((3*(rhs+n)+1)/2 + 5) }

// checkReservation feeds vs to a fresh grammar (the smallest arena) in
// the given batch widths and fails as soon as a batch moves the cursor
// past peakBound. Then it holds the grammar to the oracle and to Verify.
func checkReservation(t *testing.T, vs []uint64, splits []int, opts Options) {
	t.Helper()
	g := NewWithOptions(opts)
	lo := 0
	for _, w := range splits {
		rhs, used := g.rhsSymbols, g.symUsed
		g.AppendBatch(vs[lo : lo+w])
		lo += w
		if bound := peakBound(rhs, w); g.symUsed > max(used, bound) {
			t.Fatalf("batch [%d,%d) on %d RHS symbols moved the cursor %d → %d, past the bound %d", lo-w, lo, rhs, used, g.symUsed, bound)
		}
		if int(g.symUsed) > len(g.syms) {
			t.Fatalf("cursor %d beyond the reservation %d", g.symUsed, len(g.syms))
		}
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Snapshot(), oracleSnapshot(vs, opts)) {
		t.Fatal("snapshot diverges from the oracle")
	}
}

// simTrace is the bundled sim workload's path trace at a small
// argument. sim creates a rule and inlines one on about every other
// event: the churn that frees and reuses the most slots per event.
func simTrace(t *testing.T) []uint64 {
	w, err := workloads.ByName("sim")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := wlc.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	var buf trace.Buffer
	m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("main", 5000); err != nil {
		t.Fatal(err)
	}
	vs := make([]uint64, len(buf.Events))
	for i, e := range buf.Events {
		vs[i] = uint64(e)
	}
	return vs
}

// TestReservationBound replays a run, sim's churn and the oracle corpus
// in random batch widths, narrow and past one reservation stride, from
// the smallest arena.
func TestReservationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	run := make([]uint64, 5000)
	for i := range run {
		run[i] = 7
	}
	for _, st := range []struct {
		name string
		vs   []uint64
	}{{"run", run}, {"sim", simTrace(t)}} {
		vs := st.vs
		t.Run(st.name, func(t *testing.T) {
			checkReservation(t, vs, randomSplits(rng, len(vs), 64), Options{})
			checkReservation(t, vs, randomSplits(rng, len(vs), 2*reserveStride), Options{})
		})
	}
	t.Run("oracle-corpus", func(t *testing.T) {
		for _, c := range oracleCorpus {
			vs := oracleInput(c.data)
			opts := Options{DisableRuleUtility: c.disableUtility}
			checkReservation(t, vs, randomSplits(rng, len(vs), 16), opts)
		}
		for trial := 0; trial < 200; trial++ {
			vs := make([]uint64, 1+rng.Intn(3000))
			alpha := 1 + rng.Intn(8)
			for i := range vs {
				vs[i] = uint64(rng.Intn(alpha))
			}
			checkReservation(t, vs, randomSplits(rng, len(vs), 1+rng.Intn(256)), Options{DisableRuleUtility: trial%4 == 0})
		}
	})
}

// TestAllocationPastReservationPanics cuts the reservation down to the
// cursor and runs the batch loop on a terminal that needs a fresh
// handle: it must panic and leave the slice where it was.
func TestAllocationPastReservationPanics(t *testing.T) {
	g := New()
	g.AppendBatch([]uint64{1, 2, 3, 4}) // no repeats: nothing on the freelist
	if g.symFree != nilSym {
		t.Fatal("test input freed a symbol; the batch would not bump the cursor")
	}
	g.syms = g.syms[:g.symUsed]
	base := &g.syms[0]
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("an allocation past the reservation inside a batch did not panic")
			}
		}()
		appendReserved(g, []uint64{5})
	}()
	if &g.syms[0] != base || len(g.syms) != int(g.symUsed) {
		t.Fatal("the symbol slice moved or grew inside a batch")
	}
	// allocSym, which matchB and allocRule use, panics the same way.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("allocSym past the reservation did not panic")
			}
		}()
		g.allocSym()
	}()
}

// recycleStream's last terminal sets off a cascade that inlines a rule,
// frees its slot, and mints a new rule in that same slot — so the slot,
// and the digram key it names, changes rules inside one append.
var recycleStream = []uint64{1, 0, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0, 0, 0}

func TestSlotRecycledWithinCascade(t *testing.T) {
	g := New()
	vs := recycleStream
	AppendBatchOf(g, vs[:len(vs)-1])
	before := map[ruleRef]uint64{}
	for r := range g.rules {
		if g.liveSlot(ruleRef(r)) {
			before[ruleRef(r)] = g.rules[r].id
		}
	}
	g.Append(vs[len(vs)-1])
	recycled := false
	for r, id := range before {
		recycled = recycled || g.liveSlot(r) && g.rules[r].id != id
	}
	if !recycled {
		t.Fatal("no rule slot changed rules within the last append; the stream no longer exercises recycling")
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Snapshot(), oracleSnapshot(vs, Options{})) {
		t.Fatal("snapshot diverges from the oracle")
	}
	diffStreams(t, vs, randomSplits(rand.New(rand.NewSource(5)), len(vs), 4), Options{})
}
