package sequitur

// White-box tests for the open-addressing digram table, checked against
// a plain map oracle under a randomized operation tape. The delicate
// part is tombstone-free deletion: backward shift must never strand a
// probe chain, whatever the interleaving of inserts, overwrites, and
// conditional deletes — including keys deliberately crowded into a few
// home slots so chains wrap and overlap.

import (
	"math/rand"
	"testing"
)

func TestDigramTableBasics(t *testing.T) {
	var tb digramTable
	tb.init(minTableCap)
	if got := tb.get(1, 2); got != nilSym {
		t.Fatalf("empty table returned %d", got)
	}
	tb.set(1, 2, 7)
	tb.set(2, 1, 8)
	if got := tb.get(1, 2); got != 7 {
		t.Fatalf("get(1,2) = %d, want 7", got)
	}
	if got := tb.get(2, 1); got != 8 {
		t.Fatalf("get(2,1) = %d, want 8 (argument order must matter)", got)
	}
	tb.set(1, 2, 9) // overwrite keeps live count
	if got := tb.get(1, 2); got != 9 {
		t.Fatalf("get after overwrite = %d, want 9", got)
	}
	if tb.live != 2 {
		t.Fatalf("live = %d, want 2", tb.live)
	}
	tb.deleteIf(1, 2, 5) // wrong occupant: must be a no-op
	if got := tb.get(1, 2); got != 9 {
		t.Fatalf("deleteIf with wrong symbol removed the entry")
	}
	tb.deleteIf(1, 2, 9)
	if got := tb.get(1, 2); got != nilSym {
		t.Fatalf("entry survived deleteIf")
	}
	if tb.live != 1 {
		t.Fatalf("live = %d after delete, want 1", tb.live)
	}
}

// TestDigramTableAgainstMapOracle drives a long random tape of the three
// operations the grammar issues and cross-checks every result against a
// map. Keys are drawn from a small space so the same key is repeatedly
// inserted, overwritten, and deleted, and probe chains constantly form
// and collapse; the table also grows several times mid-tape.
func TestDigramTableAgainstMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var tb digramTable
	tb.init(minTableCap)
	oracle := map[digram]symRef{}
	keys := make([]digram, 600)
	for i := range keys {
		keys[i] = digram{uint64(rng.Intn(40)), uint64(rng.Intn(40))}
	}
	for op := 0; op < 200000; op++ {
		k := keys[rng.Intn(len(keys))]
		switch rng.Intn(3) {
		case 0: // set
			s := symRef(1 + rng.Intn(1000))
			tb.set(k.a, k.b, s)
			oracle[k] = s
		case 1: // conditional delete, half the time with the wrong occupant
			s := oracle[k]
			if rng.Intn(2) == 0 {
				s++
			}
			tb.deleteIf(k.a, k.b, s)
			if oracle[k] == s {
				delete(oracle, k)
			}
		case 2: // lookup
			want := oracle[k]
			if got := tb.get(k.a, k.b); got != want {
				t.Fatalf("op %d: get(%d,%d) = %d, want %d", op, k.a, k.b, got, want)
			}
		}
		if tb.live != len(oracle) {
			t.Fatalf("op %d: live = %d, oracle holds %d", op, tb.live, len(oracle))
		}
	}
	// Final sweep: every oracle entry must be retrievable, and the
	// table must hold nothing else.
	for k, want := range oracle {
		if got := tb.get(k.a, k.b); got != want {
			t.Fatalf("final: get(%d,%d) = %d, want %d", k.a, k.b, got, want)
		}
	}
	occupied := 0
	for _, e := range tb.entries {
		if e.sym != nilSym {
			occupied++
		}
	}
	if occupied != len(oracle) {
		t.Fatalf("table holds %d entries, oracle %d", occupied, len(oracle))
	}
}

func TestDigramTableGrowthPreservesEntries(t *testing.T) {
	var tb digramTable
	tb.init(minTableCap)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		tb.set(i, i*3+1, symRef(i+1))
	}
	if len(tb.entries) <= minTableCap {
		t.Fatalf("table did not grow past %d slots for %d entries", minTableCap, n)
	}
	for i := uint64(0); i < n; i++ {
		if got := tb.get(i, i*3+1); got != symRef(i+1) {
			t.Fatalf("entry %d lost across growth: got %d", i, got)
		}
	}
}

func TestDigramTableResetKeepsCapacity(t *testing.T) {
	var tb digramTable
	tb.init(minTableCap)
	for i := uint64(0); i < 10000; i++ {
		tb.set(i, i, symRef(i+1))
	}
	capBefore := len(tb.entries)
	tb.reset()
	if tb.live != 0 {
		t.Fatalf("live = %d after reset", tb.live)
	}
	if len(tb.entries) != capBefore {
		t.Fatalf("reset changed capacity %d -> %d; it must retain the backing array", capBefore, len(tb.entries))
	}
	for i := uint64(0); i < 10000; i++ {
		if got := tb.get(i, i); got != nilSym {
			t.Fatalf("entry %d survived reset", i)
		}
	}
}

// get returns the handle indexed under (a, b), or nilSym. The append
// engine probes through getOrSet; tests read the index through get.
func (t *digramTable) get(a, b uint64) symRef {
	i := uint32(digramHash(a, b)) & t.mask
	for {
		e := &t.entries[i]
		if e.sym == nilSym {
			return nilSym
		}
		if e.a == a && e.b == b {
			return e.sym
		}
		i = (i + 1) & t.mask
	}
}
