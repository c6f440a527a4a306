package sequitur

// White-box tests for the open-addressing digram table, checked against
// a plain map oracle under a randomized operation tape. The delicate
// part is tombstone-free deletion: backward shift must never strand a
// probe chain, whatever the interleaving of inserts, overwrites, and
// conditional deletes — including keys that share a whole fingerprint,
// so one chain holds them all and only the key confirmation tells them
// apart.
//
// A slot holds no keys, so every entry points at a real symbol: pair
// allocates a detached two-symbol chain carrying the digram, the shape
// every indexed occurrence has in a grammar.

import (
	"math/rand"
	"testing"
)

// pair allocates a detached symbol whose digram is (a, b).
func pair(g *Grammar, a, b uint64) symRef {
	g.reserve(int(g.symUsed) + 2)
	h, n := g.allocSym(), g.allocSym()
	*g.sym(h) = symbol{value: a, next: n}
	*g.sym(n) = symbol{value: b}
	return h
}

// get returns the handle indexed under (a, b), or nilSym. The append
// engine probes through getOrSet; tests read the index through get.
func (g *Grammar) get(a, b uint64) symRef {
	t := &g.table
	h := uint32(digramHash(a, b))
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		e := t.slots[i]
		if e.sym == nilSym {
			return nilSym
		}
		if e.h32 == h && g.isDigram(e.sym, a, b) {
			return e.sym
		}
	}
}

// checkLoad fails unless the table is at most half full.
func checkLoad(t *testing.T, g *Grammar) {
	t.Helper()
	if 2*g.table.live > len(g.table.slots) {
		t.Fatalf("%d live entries in %d slots: the load cap is one half", g.table.live, len(g.table.slots))
	}
}

func TestDigramTableBasics(t *testing.T) {
	g := New()
	s7, s8, s9, s5 := pair(g, 1, 2), pair(g, 2, 1), pair(g, 1, 2), pair(g, 1, 2)
	if got := g.get(1, 2); got != nilSym {
		t.Fatalf("empty table returned %d", got)
	}
	g.set(1, 2, s7)
	g.set(2, 1, s8)
	if got := g.get(1, 2); got != s7 {
		t.Fatalf("get(1,2) = %d, want %d", got, s7)
	}
	if got := g.get(2, 1); got != s8 {
		t.Fatalf("get(2,1) = %d, want %d (argument order must matter)", got, s8)
	}
	g.set(1, 2, s9) // overwrite keeps live count
	if got := g.get(1, 2); got != s9 {
		t.Fatalf("get after overwrite = %d, want %d", got, s9)
	}
	if g.table.live != 2 {
		t.Fatalf("live = %d, want 2", g.table.live)
	}
	g.table.deleteIf(1, 2, s5) // wrong occupant: must be a no-op
	if got := g.get(1, 2); got != s9 {
		t.Fatalf("deleteIf with wrong symbol removed the entry")
	}
	g.table.deleteIf(1, 2, s9)
	if got := g.get(1, 2); got != nilSym {
		t.Fatalf("entry survived deleteIf")
	}
	if g.table.live != 1 {
		t.Fatalf("live = %d after delete, want 1", g.table.live)
	}
}

// TestDigramTableAgainstMapOracle drives a long random tape of the three
// operations the grammar issues and cross-checks every result against a
// map. Keys are drawn from a small space so the same key is repeatedly
// inserted, overwritten, and deleted, and probe chains constantly form
// and collapse; the table also grows several times mid-tape.
func TestDigramTableAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := New()
	oracle := map[digram]symRef{}
	keys := make([]digram, 600)
	// Three occurrences of each key: an overwrite or a wrong-occupant
	// delete picks another occurrence of the same digram.
	occ := map[digram][3]symRef{}
	for i := range keys {
		k := digram{uint64(rng.Intn(40)), uint64(rng.Intn(40))}
		keys[i] = k
		if _, ok := occ[k]; !ok {
			occ[k] = [3]symRef{pair(g, k.a, k.b), pair(g, k.a, k.b), pair(g, k.a, k.b)}
		}
	}
	for op := 0; op < 200000; op++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(3) {
		case 0: // set
			s := occ[k][rng.Intn(3)]
			g.set(k.a, k.b, s)
			oracle[k] = s
			checkLoad(t, g)
		case 1: // conditional delete, half the time with the wrong occupant
			s := oracle[k]
			if rng.Intn(2) == 0 {
				s = occ[k][rng.Intn(3)]
			}
			g.table.deleteIf(k.a, k.b, s)
			if oracle[k] == s {
				delete(oracle, k)
			}
		case 2: // lookup
			want := oracle[k]
			if got := g.get(k.a, k.b); got != want {
				t.Fatalf("op %d: get(%d,%d) = %d, want %d", op, k.a, k.b, got, want)
			}
		}
		if g.table.live != len(oracle) {
			t.Fatalf("op %d: live = %d, oracle holds %d", op, g.table.live, len(oracle))
		}
	}
	// Final sweep: every oracle entry must be retrievable, and the
	// table must hold nothing else.
	for k, want := range oracle {
		if got := g.get(k.a, k.b); got != want {
			t.Fatalf("final: get(%d,%d) = %d, want %d", k.a, k.b, got, want)
		}
	}
	occupied := 0
	for _, e := range g.table.slots {
		if e.sym != nilSym {
			occupied++
		}
	}
	if occupied != len(oracle) {
		t.Fatalf("table holds %d entries, oracle %d", occupied, len(oracle))
	}
}

// sharedFingerprintKeys returns n distinct terminal digrams whose keys
// all hash alike: (a, c − a·K) for the multiplier K of digramHash
// shares the pre-mix value c, hence the whole 64-bit hash, the home slot
// and all 32 fingerprint bits.
func sharedFingerprintKeys(n int) []digram {
	const c = 0x0123456789abcdef
	var keys []digram
	for a := uint64(1); len(keys) < n; a++ {
		if b := c - a*0x9e3779b97f4a7c15; b < MaxTerminal {
			keys = append(keys, digram{a, b})
		}
	}
	return keys
}

// TestDigramTableSharedFingerprint fills a table to its maximum load
// with keys that share one fingerprint, so they form one cluster of
// half the table, and checks that each is found, overwritten and
// deleted by backward shift without stranding the others.
func TestDigramTableSharedFingerprint(t *testing.T) {
	g := New()
	keys := sharedFingerprintKeys(g.table.growAt)
	h := uint32(digramHash(keys[0].a, keys[0].b))
	for _, k := range keys {
		if got := uint32(digramHash(k.a, k.b)); got != h {
			t.Fatalf("key (%d,%d) has fingerprint %#x, want %#x", k.a, k.b, got, h)
		}
	}
	want := map[digram]symRef{}
	for _, k := range keys {
		s := pair(g, k.a, k.b)
		if m := g.getOrSet(k.a, k.b, s); m != nilSym {
			t.Fatalf("fresh key (%d,%d) reported as indexed at %d", k.a, k.b, m)
		}
		want[k] = s
		checkLoad(t, g)
	}
	if g.table.live != g.table.growAt || len(g.table.slots) != minTableCap {
		t.Fatalf("%d live in %d slots, want the maximum load %d of %d", g.table.live, len(g.table.slots), g.table.growAt, minTableCap)
	}
	for _, k := range keys {
		if got := g.get(k.a, k.b); got != want[k] {
			t.Fatalf("get(%d,%d) = %d, want %d", k.a, k.b, got, want[k])
		}
		s := pair(g, k.a, k.b)
		g.set(k.a, k.b, s)
		want[k] = s
	}
	if g.table.live != len(keys) {
		t.Fatalf("overwrites changed live to %d", g.table.live)
	}
	rng := rand.New(rand.NewSource(7))
	for n, i := range rng.Perm(len(keys)) {
		k := keys[i]
		g.table.deleteIf(k.a, k.b, pair(g, k.a, k.b)) // another occurrence: no-op
		g.table.deleteIf(k.a, k.b, want[k])
		delete(want, k)
		if g.table.live != len(keys)-n-1 {
			t.Fatalf("live = %d after %d deletes", g.table.live, n+1)
		}
		for k2, s := range want {
			if got := g.get(k2.a, k2.b); got != s {
				t.Fatalf("after deleting (%d,%d): get(%d,%d) = %d, want %d", k.a, k.b, k2.a, k2.b, got, s)
			}
		}
		if got := g.get(k.a, k.b); got != nilSym {
			t.Fatalf("deleted key (%d,%d) still found at %d", k.a, k.b, got)
		}
	}
}

func TestDigramTableGrowthPreservesEntries(t *testing.T) {
	g := New()
	const n = 10000
	syms := make([]symRef, n)
	for i := uint64(0); i < n; i++ {
		syms[i] = pair(g, i, i*3+1)
		g.set(i, i*3+1, syms[i])
		checkLoad(t, g)
	}
	if len(g.table.slots) <= minTableCap {
		t.Fatalf("table did not grow past %d slots for %d entries", minTableCap, n)
	}
	for i := uint64(0); i < n; i++ {
		if got := g.get(i, i*3+1); got != syms[i] {
			t.Fatalf("entry %d lost across growth: got %d", i, got)
		}
	}
}

func TestDigramTableResetKeepsCapacity(t *testing.T) {
	g := New()
	for i := uint64(0); i < 10000; i++ {
		g.set(i, i, pair(g, i, i))
	}
	capBefore := len(g.table.slots)
	g.table.reset()
	if g.table.live != 0 {
		t.Fatalf("live = %d after reset", g.table.live)
	}
	if len(g.table.slots) != capBefore {
		t.Fatalf("reset changed capacity %d -> %d; it must retain the backing array", capBefore, len(g.table.slots))
	}
	for i := uint64(0); i < 10000; i++ {
		if got := g.get(i, i); got != nilSym {
			t.Fatalf("entry %d survived reset", i)
		}
	}
}
