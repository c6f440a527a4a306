package sequitur

// The digram index as an open-addressing hash table: power-of-two
// capacity, linear probing, and tombstone-free deletion by backward
// shift. It replaces the map[digram]*symbol of the original layout —
// the algorithm only ever does point lookups, inserts, overwrites, and
// conditional deletes, so a flat probe array with inline keys beats the
// general map on every operation and allocates nothing in steady state
// (reset keeps capacity for pooled grammars).

// digramEntry is one slot: the two 64-bit symbol keys and the handle of
// the indexed occurrence. sym == nilSym marks an empty slot, which is
// why symbol handle 0 is reserved. h32 caches the low hash bits of
// (a, b) in what would otherwise be struct padding (the entry is 24
// bytes either way): the backward-shift delete and rehash derive an
// entry's home slot from it with a mask instead of re-running the
// multiply cascade per scanned entry.
type digramEntry struct {
	a, b uint64
	sym  symRef
	h32  uint32
}

// digramTable is the open-addressing index. live is the number of
// occupied slots; growAt the occupancy that triggers doubling (3/4
// load: linear probing degrades sharply beyond that).
type digramTable struct {
	entries []digramEntry
	mask    uint32
	live    int
	growAt  int
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
	t.entries = make([]digramEntry, capacity)
	t.mask = uint32(capacity - 1)
	t.live = 0
	t.growAt = capacity - capacity/4
}

// reset empties the table, keeping its capacity for the next use.
func (t *digramTable) reset() {
	clear(t.entries)
	t.live = 0
}

// set inserts (a, b) -> s, overwriting an existing entry for the key.
func (t *digramTable) set(a, b uint64, s symRef) {
	if t.live >= t.growAt {
		t.rehash(2 * len(t.entries))
	}
	h := uint32(digramHash(a, b))
	i := h & t.mask
	for {
		e := &t.entries[i]
		if e.sym == nilSym {
			*e = digramEntry{a: a, b: b, sym: s, h32: h}
			t.live++
			return
		}
		if e.a == a && e.b == b {
			e.sym = s
			return
		}
		i = (i + 1) & t.mask
	}
}

// getOrSet is the fused probe the append engine uses in place of a get
// followed by a set: one walk of the probe chain either finds the
// existing entry for (a, b) and returns its handle, or claims the first
// empty slot for s and returns nilSym. The table contents after a miss
// are identical to get-then-set — growth triggers on the same live/growAt
// comparison an insert through set would have made — so the engine
// evolves the index contents the textbook check would from equal inputs.
func (t *digramTable) getOrSet(a, b uint64, s symRef) symRef {
	h := uint32(digramHash(a, b))
	i := h & t.mask
	for {
		e := &t.entries[i]
		if e.sym == nilSym {
			if t.live >= t.growAt {
				t.rehash(2 * len(t.entries))
				// The key is absent (this chain just proved it); find an
				// empty slot in the grown table and claim it.
				i = h & t.mask
				for t.entries[i].sym != nilSym {
					i = (i + 1) & t.mask
				}
				e = &t.entries[i]
			}
			*e = digramEntry{a: a, b: b, sym: s, h32: h}
			t.live++
			return nilSym
		}
		if e.a == a && e.b == b {
			return e.sym
		}
		i = (i + 1) & t.mask
	}
}

// deleteIf removes the entry for (a, b) only when it points at s — the
// forget contract: an occurrence may only evict its own index entry,
// never another occurrence's. Deletion is by backward shift: the
// vacated slot is refilled with later probe-chain entries whose home
// slot lies at or before it, so no chain is ever broken and no
// tombstones accumulate.
func (t *digramTable) deleteIf(a, b uint64, s symRef) {
	mask := t.mask
	i := uint32(digramHash(a, b)) & mask
	for {
		e := &t.entries[i]
		if e.sym == nilSym {
			return
		}
		if e.a == a && e.b == b {
			if e.sym != s {
				return
			}
			break
		}
		i = (i + 1) & mask
	}
	t.live--
	j := i
	for {
		j = (j + 1) & mask
		e := t.entries[j]
		if e.sym == nilSym {
			break
		}
		// e's probe distance from its home slot, measured at j, tells
		// whether the hole at i is still on e's probe chain: if the
		// distance from the hole to j does not exceed e's own distance,
		// e may move back into the hole.
		home := e.h32 & mask
		if (j-home)&mask >= (j-i)&mask {
			t.entries[i] = e
			i = j
		}
	}
	t.entries[i] = digramEntry{}
}

// rehash doubles into a fresh array. Lookup behavior is layout
// independent, so reinsertion order does not matter; slot scan order
// keeps it deterministic anyway.
func (t *digramTable) rehash(capacity int) {
	old := t.entries
	t.init(capacity)
	for _, e := range old {
		if e.sym == nilSym {
			continue
		}
		i := e.h32 & t.mask
		for t.entries[i].sym != nilSym {
			i = (i + 1) & t.mask
		}
		t.entries[i] = e
		t.live++
	}
}
