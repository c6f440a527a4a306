package sequitur

// White-box tests pinning down Reset's contract: every piece of builder
// state — rule IDs, the digram table, terminal and symbol counts — is
// cleared, so a pooled, Reset grammar is indistinguishable from a fresh
// New() one.

import (
	"bytes"
	"testing"

	"repro/internal/obsv"
)

// feed appends a repetitive stream that forces rule creation, so the
// digram table and rule IDs are exercised before Reset.
func feedRepetitive(g *Grammar, rounds int) {
	for i := 0; i < rounds; i++ {
		for _, v := range []uint64{1, 2, 3, 1, 2, 3, 4, 4} {
			g.Append(v)
		}
	}
}

func TestResetClearsAllState(t *testing.T) {
	g := New()
	feedRepetitive(g, 8)
	if g.table.live == 0 {
		t.Fatal("digram table empty after repetitive input; test input is too weak")
	}
	if g.nextID == 1 {
		t.Fatal("no rule IDs allocated after repetitive input")
	}
	if g.terminals == 0 || g.rhsSymbols == 0 || g.liveRules <= 1 {
		t.Fatalf("unexpected pre-Reset state: terminals=%d rhsSymbols=%d liveRules=%d",
			g.terminals, g.rhsSymbols, g.liveRules)
	}

	reserved := len(g.syms)
	g.Reset()

	if got := g.table.live; got != 0 {
		t.Errorf("digram table has %d entries after Reset, want 0", got)
	}
	if cap(g.table.slots) < minTableCap {
		t.Errorf("digram table lost its capacity across Reset")
	}
	if g.nextID != 1 {
		t.Errorf("nextID = %d after Reset, want 1", g.nextID)
	}
	if g.terminals != 0 {
		t.Errorf("terminals = %d after Reset, want 0", g.terminals)
	}
	if g.rhsSymbols != 0 {
		t.Errorf("rhsSymbols = %d after Reset, want 0", g.rhsSymbols)
	}
	if g.liveRules != 1 {
		t.Errorf("liveRules = %d after Reset, want 1 (start rule)", g.liveRules)
	}
	if g.Len() != 0 {
		t.Errorf("Len() = %d after Reset, want 0", g.Len())
	}
	if st := g.Stats(); st != (Stats{Rules: 1}) {
		t.Errorf("Stats() = %+v after Reset, want zero except Rules=1", st)
	}
	// The start rule must be replaced, not merely truncated: symbols of
	// the old derivation must not leak into the new one.
	if s := g.sym(g.firstOf(g.start)); !s.isGuard() {
		t.Errorf("start rule still has RHS symbols after Reset (first = %+v)", s)
	}
	// The arenas must be rewound, not released: Reset keeps the symbol
	// slice and its reservation.
	if g.symUsed != 1+1 { // nil sentinel skipped, one guard for the new start rule
		t.Errorf("symbol arena cursor = %d after Reset, want 2", g.symUsed)
	}
	if len(g.syms) < reserved {
		t.Errorf("symbol slice shrank from %d to %d handles across Reset; it must be retained for reuse", reserved, len(g.syms))
	}
}

// TestResetEquivalentToFresh is the behavioral half of the contract: a
// Reset grammar compresses a stream into exactly the grammar a fresh one
// produces, byte for byte.
func TestResetEquivalentToFresh(t *testing.T) {
	reused := New()
	feedRepetitive(reused, 16) // pollute with an unrelated derivation
	reused.Reset()

	fresh := New()
	second := []uint64{7, 8, 7, 8, 9, 7, 8, 7, 8, 9, 10}
	for i := 0; i < 5; i++ {
		for _, v := range second {
			reused.Append(v)
			fresh.Append(v)
		}
	}

	if rs, fs := reused.Stats(), fresh.Stats(); rs != fs {
		t.Fatalf("stats diverge: reused %+v, fresh %+v", rs, fs)
	}
	rb, _ := reused.Snapshot().AppendEncoding(nil, nil)
	fb, _ := fresh.Snapshot().AppendEncoding(nil, nil)
	if !bytes.Equal(rb, fb) {
		t.Errorf("reused grammar encodes to %d bytes != fresh %d bytes", len(rb), len(fb))
	}
}

// TestResetKeepsMetrics pins the pooled-grammar contract: hooks survive
// Reset (counters keep accumulating) while the digram-table gauge drops
// to zero with the cleared table.
func TestResetKeepsMetrics(t *testing.T) {
	reg := obsv.NewRegistry()
	g := New()
	g.SetMetrics(Metrics{
		Terminals:   reg.Counter("terms"),
		DigramTable: reg.Gauge("digrams"),
	})
	feedRepetitive(g, 4)
	before := reg.Counter("terms").Value()
	if before == 0 {
		t.Fatal("terminal counter not incremented")
	}
	if reg.Gauge("digrams").Value() == 0 {
		t.Fatal("digram gauge not set")
	}

	g.Reset()
	if got := reg.Gauge("digrams").Value(); got != 0 {
		t.Errorf("digram gauge = %d after Reset, want 0", got)
	}
	g.Append(1)
	if got := reg.Counter("terms").Value(); got != before+1 {
		t.Errorf("terminal counter = %d after Reset+Append, want %d (hooks must survive Reset)", got, before+1)
	}
}
