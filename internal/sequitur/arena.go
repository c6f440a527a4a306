package sequitur

import "fmt"

// This file holds the grammar's memory layout: every symbol lives in one
// flat slice addressed by a dense uint32 handle, rules in one dense
// slice addressed by their arena index. Neither hands a pointer to the
// heap allocator on the hot path — appends recycle freed slots through
// intrusive freelists, and Reset rewinds the arenas without releasing
// their storage, so a pooled grammar compresses chunk after chunk with
// zero steady-state allocations.
//
// Symbol handle 0 is reserved as the nil sentinel (nilSym): slot 0 of
// the digram table's value space means "empty", so no valid symbol may
// be handle 0.
//
// # The reservation
//
// The symbol slice may move when it grows, and the append engine holds
// resolved *symbol pointers across calls: the start rule's guard and
// tail across a whole stretch of the batch loop, and matchB's operands
// across allocRule. So
// the slice grows only in reserve, which AppendBatchOf calls before it
// resolves anything, once per batch or per reserveStride terminals of a
// longer one; inside that stretch an allocation past the reservation
// panics instead of moving the slice.
//
// The reservation for a stretch of n terminals is
// reserveFor(rhsSymbols, n) = (rhsSymbols+n)*3/2 + reserveSlack
// handles. It covers the stretch because:
//
//   - a handle is bumped only when the freelist is empty, that is when
//     every handle below the cursor is live, so the cursor never passes
//     the peak live count plus the nil handle;
//   - the live symbols are the RHS symbols plus one guard per rule, and
//     every rule but the start rule has a body of at least 2 symbols (a
//     Verify invariant), so rules number at most 1 + RHS/2 and live
//     symbols at most 1.5 × RHS + 1;
//   - RHS grows by at most 1 per appended terminal: a new rule's two
//     body copies are paid for by the two substitutions that follow,
//     a reused rule and an inlining each shrink it, so within the
//     stretch RHS never exceeds rhsSymbols + n outside a match;
//   - inside a new-rule match the two copies and the new guard are live
//     before the substitutions free the two replaced symbols. The first
//     substitution's seams cannot match (the new rule has one occurrence
//     so far, and its body is not yet indexed), so every cascade runs
//     after the second substitution, when the excess is back to the one
//     guard the 1 + RHS/2 count already holds. Matches nest only inside
//     those cascades, so the excess is at most 3 symbols at any time.
//
// Peak live is thus at most 1.5 × (rhsSymbols + n) + 4, plus the nil
// handle; reserveSlack covers that and the rounding of the halving.
// The reservation is taken from the grammar's size, never from the
// terminal count: a reservation proportional to the trace would
// allocate and zero memory a compressing grammar never uses.

// symRef is a handle into the symbol slice; nilSym (0) is "no symbol".
type symRef uint32

// ruleRef is an index into the rule arena: a rule's slot.
type ruleRef uint32

const nilSym symRef = 0

// Symbol values. A value tells what its symbol is, and a non-guard
// symbol's value is its digram key:
//
//   - a terminal is its terminal value, below MaxTerminal (2^62);
//   - a guard is guardBase | its rule slot, in [2^62, 2^63);
//   - a nonterminal is ^uint64(its rule slot), at least 2^63.
//
// The three ranges are disjoint, so no key ever equals a guard's value
// and a nonterminal's key can never collide with a terminal.
const (
	guardBase   = MaxTerminal
	nonterminal = uint64(1) << 63
)

// symbol is a 16-byte node in a doubly linked rule body. A rule body is
// circular around a guard node: guard.next is the first symbol,
// guard.prev the last. On the symbol freelist, next links to the next
// free handle and value is zero.
type symbol struct {
	value      uint64
	next, prev symRef
}

func (s *symbol) isGuard() bool       { return s.value>>62 == 1 }
func (s *symbol) isNonterminal() bool { return s.value >= nonterminal }

// ruleOf returns the rule a nonterminal refers to. (A guard's rule is
// the low 32 bits of its value: ruleRef(value).)
func (s *symbol) ruleOf() ruleRef { return ruleRef(^s.value) }

// rule is a grammar rule. uses counts the occurrences of the rule on the
// right-hand side of other rules; the start rule has uses == 0. id is
// the creation-ordered identity matchB reads to tell whether a slot
// still holds the rule it made: ids are never reused within one
// derivation, even when the rule slot is.
type rule struct {
	id       uint64
	guardSym symRef
	uses     int32
}

// reserveSlack is the constant term of the batch reservation (see the
// file comment). reserveStride is the most terminals one reservation
// covers: its headroom, 1.5 × stride handles, is 24 KiB, so a fresh
// grammar's first reservation stays small, and re-entering the batch
// loop once per 1024 terminals costs nothing measurable.
const (
	reserveSlack  = 16
	reserveStride = 1024
)

// reserveFor is the number of symbol handles a batch of n terminals can
// use on a grammar with rhs right-hand-side symbols.
func reserveFor(rhs, n int) int { return (rhs+n)*3/2 + reserveSlack }

// reserve makes handles below n allocatable, growing the slice when it
// is too small. It is the only place the slice moves, so no resolved
// *symbol may be held across it. Growth at least doubles the capacity,
// so a growing grammar copies each symbol a constant number of times.
func (g *Grammar) reserve(n int) {
	if n <= len(g.syms) {
		return
	}
	if n <= cap(g.syms) {
		g.syms = g.syms[:n]
		return
	}
	grown := make([]symbol, n, max(n, 2*cap(g.syms)))
	copy(grown[:g.symUsed], g.syms)
	g.syms = grown
}

// sym resolves a handle to its slot: one load. The pointer stays valid
// until the next reserve, but must not be held across a call that may
// allocate a symbol: the allocation could recycle the very slot.
func (g *Grammar) sym(h symRef) *symbol { return &g.syms[h] }

// panicArena reports an allocation past the reservation, hoisted out of
// the allocation paths so they stay inlinable.
func panicArena(used uint32) {
	panic(fmt.Sprintf("sequitur: symbol %d allocated past the reservation; the slice must not move under held pointers", used))
}

// allocSym returns a symbol slot for the caller to write in full: the
// freelist head if one is free, otherwise the next never-used handle,
// which must lie inside the reservation.
func (g *Grammar) allocSym() symRef {
	if h := g.symFree; h != nilSym {
		g.symFree = g.sym(h).next
		return h
	}
	h := g.symUsed
	if int(h) >= len(g.syms) {
		panicArena(h)
	}
	g.symUsed++
	return symRef(h)
}

// freeSym pushes a detached symbol onto the freelist.
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
	gh := g.allocSym()
	*g.sym(gh) = symbol{value: guardBase | uint64(r), next: gh, prev: gh}
	g.rules[r] = rule{id: id, guardSym: gh}
	return r
}

// freeRule returns a deleted rule's slot to the recycle stack. The
// caller has already freed the guard symbol and unlinked the body, and
// evicted every digram keyed by the rule: the slot's key names the next
// rule minted in it.
func (g *Grammar) freeRule(r ruleRef) {
	g.rules[r] = rule{}
	g.freeRules = append(g.freeRules, r)
}

// firstOf and lastOf return the ends of a rule's body (the guard's
// neighbors; for an empty body they return the guard itself).
func (g *Grammar) firstOf(r ruleRef) symRef { return g.sym(g.rules[r].guardSym).next }
func (g *Grammar) lastOf(r ruleRef) symRef  { return g.sym(g.rules[r].guardSym).prev }
