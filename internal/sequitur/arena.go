package sequitur

// This file holds the grammar's memory layout: symbols live in chunked
// slabs addressed by dense uint32 handles, rules in one dense slice
// addressed by their arena index. Neither ever hands a pointer to the
// heap allocator on the hot path — appends recycle freed slots through
// intrusive freelists, and Reset rewinds the arenas without releasing
// their storage, so a pooled grammar compresses chunk after chunk with
// zero steady-state allocations.
//
// Handle 0 is reserved in both arenas as the nil sentinel (nilSym,
// nilRule): a terminal symbol's rule field is nilRule, and slot 0 of the
// digram table's value space means "empty", so no valid symbol may be
// handle 0.

// symRef is a handle into the symbol slabs; nilSym (0) is "no symbol".
type symRef uint32

// ruleRef is an index into the rule arena; nilRule (0) is "no rule",
// which is what a terminal symbol carries.
type ruleRef uint32

const (
	nilSym  symRef  = 0
	nilRule ruleRef = 0
)

// Symbol slabs hold 1<<slabBits symbols each (24 B/symbol, 192 KiB per
// slab): large enough that slab growth vanishes from steady state, small
// enough that a fresh grammar stays cheap.
const (
	slabBits = 13
	slabSize = 1 << slabBits
	slabMask = slabSize - 1
)

// symbol is a node in a doubly linked rule body. A rule body is circular
// around a guard node: guard.next is the first symbol, guard.prev the
// last. For a terminal, rule is nilRule and value holds the terminal.
// For a nonterminal, rule is the referenced rule and value its digram
// key, the rule's complemented id, so every symbol's key is its value.
// For a guard, guard is true and rule points back at the owning rule.
// On the symbol freelist, next links to the next free handle and every
// other field is zero.
type symbol struct {
	value      uint64
	next, prev symRef
	rule       ruleRef
	guard      bool
}

func (s *symbol) isNonterminal() bool { return !s.guard && s.rule != nilRule }

// rule is a grammar rule. uses counts the occurrences of the rule on the
// right-hand side of other rules; the start rule has uses == 0. id is
// the creation-ordered identity that keys nonterminals in the digram
// index; ids are never reused within one derivation, even when the rule
// slot is.
type rule struct {
	id       uint64
	guardSym symRef
	uses     int32
}

// sym resolves a handle to its slab slot. The pointer is stable (slabs
// are never reallocated), but must not be held across a call that may
// allocate a symbol: the allocation could recycle the very slot. Slabs
// are pointers to fixed-size arrays, so the low-bits index needs no
// bounds check and the resolution is two dependent loads.
func (g *Grammar) sym(h symRef) *symbol {
	return &g.slabs[h>>slabBits][h&slabMask]
}

// allocSym returns a zeroed symbol slot: the freelist head if one is
// free, otherwise the next never-used handle, growing the slab arena
// when it crosses into a fresh slab.
func (g *Grammar) allocSym() symRef {
	if h := g.symFree; h != nilSym {
		g.symFree = g.sym(h).next
		g.sym(h).next = nilSym
		return h
	}
	h := g.symUsed
	if int(h>>slabBits) == len(g.slabs) {
		g.slabs = append(g.slabs, new([slabSize]symbol))
	}
	g.symUsed++
	return symRef(h)
}

// newSym allocates and initializes a symbol.
func (g *Grammar) newSym(value uint64, r ruleRef, guard bool) symRef {
	h := g.allocSym()
	*g.sym(h) = symbol{value: value, rule: r, guard: guard}
	return h
}

// freeSym pushes a detached symbol onto the freelist, zeroing it so a
// stale rule reference can never leak into the slot's next life.
func (g *Grammar) freeSym(h symRef) {
	*g.sym(h) = symbol{next: g.symFree}
	g.symFree = h
}

// allocRule mints a rule with an empty circular body. Freed slots are
// recycled before the dense slice grows.
func (g *Grammar) allocRule(id uint64) ruleRef {
	var r ruleRef
	if n := len(g.freeRules); n > 0 {
		r = g.freeRules[n-1]
		g.freeRules = g.freeRules[:n-1]
	} else {
		g.rules = append(g.rules, rule{})
		r = ruleRef(len(g.rules) - 1)
	}
	gh := g.newSym(0, r, true)
	gs := g.sym(gh)
	gs.next, gs.prev = gh, gh
	g.rules[r] = rule{id: id, guardSym: gh}
	return r
}

// freeRule returns a deleted rule's slot to the recycle stack. The
// caller has already freed the guard symbol and unlinked the body.
func (g *Grammar) freeRule(r ruleRef) {
	g.rules[r] = rule{}
	g.freeRules = append(g.freeRules, r)
}

// firstOf and lastOf return the ends of a rule's body (the guard's
// neighbors; for an empty body they return the guard itself).
func (g *Grammar) firstOf(r ruleRef) symRef { return g.sym(g.rules[r].guardSym).next }
func (g *Grammar) lastOf(r ruleRef) symRef  { return g.sym(g.rules[r].guardSym).prev }
