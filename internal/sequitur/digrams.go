package sequitur

// The digram index as an open-addressing hash table: power-of-two
// capacity, linear probing, and tombstone-free deletion by backward
// shift. It replaces the map[digram]*symbol of the original layout —
// the algorithm only ever does point lookups, inserts, overwrites, and
// conditional deletes, so a flat probe array beats the general map on
// every operation and allocates nothing in steady state (reset keeps
// capacity for pooled grammars).
//
// A slot holds no keys. It holds the 32-bit fingerprint of the digram's
// hash and the handle of the indexed occurrence, and a fingerprint hit
// is confirmed against that occurrence's own keys: an indexed symbol
// always carries the digram it is indexed under (the discipline Verify
// checks), so the symbol and its successor are the key. The engine
// loads those two symbols on a hit anyway (matchB and the overlap test
// read them), and a miss confirms nothing unless two digrams share all
// 32 fingerprint bits. The table is kept at most half full: backward
// shift scans to the end of the cluster on every delete, and clusters
// grow steeply with load under linear probing.

// digramSlot is one 8-byte slot. sym == nilSym marks an empty slot,
// which is why symbol handle 0 is reserved. h32 is the low 32 bits of
// digramHash(a, b): the probe filter, and the home slot (h32 & mask)
// that backward shift and rehash read instead of re-hashing the keys.
type digramSlot struct {
	h32 uint32
	sym symRef
}

// digramTable is the open-addressing index. live is the number of
// occupied slots; growAt the occupancy that triggers doubling (half the
// capacity).
type digramTable struct {
	slots  []digramSlot
	mask   uint32
	live   int
	growAt int
}

// minTableCap is the initial capacity; must be a power of two.
const minTableCap = 256

// digramHash mixes both keys through a murmur-style finalizer. Digram
// keys are near-dense small integers (terminal values and complemented
// rule ids), so the multiply-xor cascade is what spreads them across
// the table.
func digramHash(a, b uint64) uint64 {
	h := a*0x9e3779b97f4a7c15 + b
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func (t *digramTable) init(capacity int) {
	t.slots = make([]digramSlot, capacity)
	t.mask = uint32(capacity - 1)
	t.live = 0
	t.growAt = capacity / 2
}

// reset empties the table, keeping its capacity for the next use.
func (t *digramTable) reset() {
	clear(t.slots)
	t.live = 0
}

// isDigram reports whether the symbol at h is followed by a symbol and
// the two carry the keys (a, b): the confirmation of a fingerprint hit.
func (g *Grammar) isDigram(h symRef, a, b uint64) bool {
	s := g.sym(h)
	return s.value == a && g.keyOf(s.next) == b
}

// getOrSet is the fused probe the append engine uses in place of a get
// followed by a set: one walk of the probe chain either finds the
// existing entry for (a, b) and returns its handle, or claims the first
// empty slot for s and returns nilSym. The table contents after a miss
// are identical to get-then-set — growth triggers on the same live/growAt
// comparison an insert through set would have made — so the engine
// evolves the index contents the textbook check would from equal inputs.
func (g *Grammar) getOrSet(a, b uint64, s symRef) symRef {
	t := &g.table
	h := uint32(digramHash(a, b))
	i := h & t.mask
	for {
		e := &t.slots[i]
		if e.sym == nilSym {
			if t.live >= t.growAt {
				// The key is absent (this chain just proved it); claim an
				// empty slot in the grown table.
				t.rehash(2 * len(t.slots))
				e = t.emptySlot(h)
			}
			*e = digramSlot{h32: h, sym: s}
			t.live++
			return nilSym
		}
		if e.h32 == h && g.isDigram(e.sym, a, b) {
			return e.sym
		}
		i = (i + 1) & t.mask
	}
}

// set indexes (a, b) -> s, overwriting an existing entry for the key.
func (g *Grammar) set(a, b uint64, s symRef) {
	if m := g.getOrSet(a, b, s); m != nilSym {
		g.table.slots[g.table.find(uint32(digramHash(a, b)), m)].sym = s
	}
}

// find returns the index of the slot that holds fingerprint h and
// handle s, or -1. An indexed symbol carries the digram it is indexed
// under, so the handle identifies the entry without its keys.
func (t *digramTable) find(h uint32, s symRef) int {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		e := t.slots[i]
		if e.sym == nilSym {
			return -1
		}
		if e.sym == s && e.h32 == h {
			return int(i)
		}
	}
}

// deleteIf removes the entry for (a, b) only when it points at s — the
// forget contract: an occurrence may only evict its own index entry,
// never another occurrence's. An entry pointing at s is necessarily the
// (a, b) entry, since s's digram is (a, b); so the probe matches the
// handle and needs no key confirmation. Deletion is by backward shift:
// the vacated slot is refilled with later probe-chain entries whose
// home slot lies at or before it, so no chain is ever broken and no
// tombstones accumulate.
func (t *digramTable) deleteIf(a, b uint64, s symRef) {
	at := t.find(uint32(digramHash(a, b)), s)
	if at < 0 {
		return
	}
	t.live--
	mask := t.mask
	i := uint32(at)
	for j := (i + 1) & mask; ; j = (j + 1) & mask {
		e := t.slots[j]
		if e.sym == nilSym {
			break
		}
		// e's probe distance from its home slot, measured at j, tells
		// whether the hole at i is still on e's probe chain: if the
		// distance from the hole to j does not exceed e's own distance,
		// e may move back into the hole.
		if (j-e.h32)&mask >= (j-i)&mask {
			t.slots[i] = e
			i = j
		}
	}
	t.slots[i] = digramSlot{}
}

// emptySlot returns the first empty slot on fingerprint h's probe
// chain.
func (t *digramTable) emptySlot(h uint32) *digramSlot {
	i := h & t.mask
	for t.slots[i].sym != nilSym {
		i = (i + 1) & t.mask
	}
	return &t.slots[i]
}

// rehash doubles into a fresh array. Lookup behavior is layout
// independent, so reinsertion order does not matter; slot scan order
// keeps it deterministic anyway.
func (t *digramTable) rehash(capacity int) {
	old := t.slots
	t.init(capacity)
	for _, e := range old {
		if e.sym != nilSym {
			*t.emptySlot(e.h32) = e
			t.live++
		}
	}
}
