package sequitur

import "fmt"

// panicTerminal reports an out-of-range terminal, hoisted out of the
// batch loop so the loop body stays inlinable.
func panicTerminal(v uint64) {
	panic(fmt.Sprintf("sequitur: terminal %d out of range", v))
}

// The append engine. Every terminal reaches the grammar through
// AppendBatchOf — Append is the one-element batch — so the package has
// a single implementation of the SEQUITUR update. It is held to the
// map-indexed, pointer-chased transliteration of Nevill-Manning and
// Witten's algorithm in oracle_test.go: on every input and at every
// batch width the snapshots must be identical.
//
// Where the speed comes from, relative to that textbook formulation:
//
//   - the start rule's tail handle and its digram key are carried across
//     iterations instead of being re-derived from the guard every event,
//     so the common no-repetition append touches the symbol arena once;
//   - the digram probe uses getOrSet: one walk of the probe chain either
//     finds the repeated occurrence or indexes the new digram, where a
//     textbook check probes twice (get, then set);
//   - every symbol carries its digram key in its value (a nonterminal
//     its rule's complemented slot), so no key costs a rule lookup, and
//     the value alone tells a terminal, a nonterminal and a guard apart,
//     so a symbol is 16 bytes and resolving a handle is one load;
//   - substitution passes the digram keys it already knows down the call
//     chain (substituteB, checkKeyed, expandB) instead of recomputing
//     them from the arena, and skips the index probes of a generic
//     unlink that are provably no-ops (see substituteB);
//   - the replaced occurrence's arena slot is rewritten in place as the
//     new nonterminal instead of being freed and immediately re-allocated;
//   - instrumentation (terminal counter, table gauge) updates once per
//     batch instead of once per event.
//
// Equivalence with the oracle rests on one observation: the grammar's
// evolution depends only on the digram table's *contents* (a key →
// occurrence map), never on its memory layout, and on the structural
// chain state — not on arena handle numbering. Every shortcut below
// preserves table contents and structure exactly; Verify cross-checks
// both after the fact.

// AppendBatch feeds a slice of terminals to the grammar, equivalent to
// calling Append for each element in order. It panics if any value is
// >= MaxTerminal — the whole batch is validated before any element is
// appended. The instrumentation hooks observe one update per batch
// rather than per event; counter totals after the batch are the same
// at every batch width.
func (g *Grammar) AppendBatch(vs []uint64) { AppendBatchOf(g, vs) }

// AppendBatchOf is AppendBatch generalized over any uint64-shaped
// element type, so callers whose event types are defined as uint64
// (trace.Event) feed their slices directly instead of paying a
// conversion copy per batch.
func AppendBatchOf[T ~uint64](g *Grammar, vs []T) {
	if len(vs) == 0 {
		return
	}
	for _, v := range vs {
		if uint64(v) >= MaxTerminal {
			panicTerminal(uint64(v))
		}
	}
	// The one place a batch may move the symbol slice: before any
	// pointer into it is resolved (see arena.go for the bound). A long
	// batch reserves one stride at a time, so a caller that hands over a
	// whole trace does not reserve memory in proportion to it.
	for lo := 0; lo < len(vs); lo += reserveStride {
		part := vs[lo:min(lo+reserveStride, len(vs))]
		g.reserve(reserveFor(g.rhsSymbols, len(part)))
		appendReserved(g, part)
	}
	g.terminals += uint64(len(vs))
	if g.instrumented {
		g.metrics.Terminals.Add(uint64(len(vs)))
		g.metrics.DigramTable.Set(int64(g.table.live))
	}
}

// appendReserved is the batch loop, run inside a reservation that
// covers it: gp and tp are held across every iteration.
func appendReserved[T ~uint64](g *Grammar, vs []T) {
	guard := g.rules[g.start].guardSym
	gp := g.sym(guard)
	tail := gp.prev
	tp := g.sym(tail)
	tailGuard := tail == guard
	tailKey := tp.value
	// Every iteration links exactly one symbol; substitutions adjust the
	// count down as they happen, so the net bookkeeping can be hoisted.
	g.rhsSymbols += len(vs)
	for _, tv := range vs {
		v := uint64(tv)
		// Inline symbol allocation (allocSym fused with the slot write)
		// and tail link. tp caches the tail's slot pointer — the slice
		// does not move inside the reservation and the tail is live, so
		// it stays valid across iterations.
		h := g.symFree
		var s *symbol
		if h != nilSym {
			s = g.sym(h)
			g.symFree = s.next
		} else {
			h = symRef(g.symUsed)
			if int(h) >= len(g.syms) {
				panicArena(g.symUsed)
			}
			g.symUsed++
			s = g.sym(h)
		}
		*s = symbol{value: v, next: guard, prev: tail}
		tp.next = h
		gp.prev = h
		if tailGuard {
			// First symbol of the start rule: no digram yet.
			tail, tp, tailKey, tailGuard = h, s, v, false
			continue
		}
		// Digram uniqueness for (tail, h), keys known: a digram check
		// with its get-then-set replaced by one fused probe. The
		// new digram cannot already be indexed at tail (tail was the last
		// symbol; its digram did not exist), so a found entry is always a
		// genuine other occurrence or an overlap.
		m := g.getOrSet(tailKey, v, tail)
		if m == nilSym || g.sym(m).next == tail {
			// Indexed it, or overlapping occurrence (run of identical
			// symbols) which the algorithm leaves unindexed.
			tail, tp, tailKey = h, s, v
			continue
		}
		g.matchB(tail, tp, m, tailKey, v)
		// The substitution rewrote the end of the start rule; re-derive
		// the tail state.
		tail = gp.prev
		tp = g.sym(tail)
		tailGuard = tail == guard
		tailKey = tp.value
	}
}

// matchB handles a repeated digram whose keys (a, b) are already known:
// s is the newly formed occurrence, m the indexed one. sp is s resolved
// — callers always have the pointer in hand, and sym(h) is a pure
// function of the handle (the slice does not move inside a batch), so
// threading resolved pointers down the chain drops redundant arena
// resolutions without any aliasing hazard.
func (g *Grammar) matchB(s symRef, sp *symbol, m symRef, a, b uint64) {
	var r ruleRef
	var id uint64
	ms := g.sym(m)
	mPrevS := g.sym(ms.prev)
	mNextNextS := g.sym(g.sym(ms.next).next)
	if mPrevS.isGuard() && mNextNextS.isGuard() {
		// The matched occurrence is the entire body of a rule: reuse it.
		// The index entry for (a, b) points at that body and stays.
		r = ruleRef(mPrevS.value)
		g.metrics.RulesReused.Inc()
		id = g.rules[r].id
		g.substituteB(s, sp, r, a, b, false)
	} else {
		r = g.allocRule(g.nextID)
		g.nextID++
		g.liveRules++
		g.metrics.RulesCreated.Inc()
		// Build the two-symbol body (copies of s and s.next) with direct
		// writes: the body is empty, so every neighbor is the fresh guard.
		gh := g.rules[r].guardSym
		c1 := g.allocSym()
		c2 := g.allocSym()
		*g.sym(c1) = symbol{value: a, next: c2, prev: gh}
		*g.sym(c2) = symbol{value: b, next: gh, prev: c1}
		ghs := g.sym(gh)
		ghs.next, ghs.prev = c1, c2
		g.rhsSymbols += 2
		if a >= nonterminal {
			g.rules[ruleRef(^a)].uses++
		}
		if b >= nonterminal {
			g.rules[ruleRef(^b)].uses++
		}
		id = g.rules[r].id
		// Replace the older occurrence first so its index entry is
		// released before the newer one is rewritten.
		g.substituteB(m, ms, r, a, b, true)
		g.substituteB(s, sp, r, a, b, false)
		if g.rules[r].id != id {
			return // inlined by the seam checks' matches; see below
		}
		// Index the body digram. Its keys are exactly (a, b): the copies
		// are never touched by the recursive substitutions above (the
		// body is unreachable from the index until this insert), and a
		// rule a copy references cannot be dissolved while the copy
		// itself holds a use of it, so both keys are stable.
		g.set(a, b, c1)
	}
	// Rule utility. The match left r's body as the two symbols of the
	// repeated digram, so only a nonterminal at either end of it can have
	// dropped to a single use; such a rule is inlined. Substituting and
	// inlining both re-check the seams they open, which can cascade into
	// further matches that inline r itself, so r is examined only while
	// its slot still carries its id (a freed slot is zeroed, a recycled
	// one gets a fresh id). For the same reason a new rule's body digram
	// is indexed above only if the rule survived its substitutions.
	if g.opts.DisableRuleUtility || g.rules[r].id != id {
		return
	}
	f := g.firstOf(r)
	if fs := g.sym(f); fs.isNonterminal() && g.rules[fs.ruleOf()].uses == 1 {
		g.expandB(f, fs)
	}
	if g.rules[r].id != id {
		return
	}
	l := g.lastOf(r)
	if ls := g.sym(l); ls.isNonterminal() && g.rules[ls.ruleOf()].uses == 1 {
		g.expandB(l, ls)
	}
}

// expandB inlines u (resolved as us), the only remaining use of its
// rule rr, and deletes the rule. u is the first or the last symbol of a
// rule body (see matchB), so one of its seams is that body's guard; the
// other is re-checked with both keys in hand, which either indexes the
// new digram or folds it into an existing rule. The body symbols keep
// their identity, so interior digram index entries remain valid; only
// u, the guard and the rule's arena slot are released. The uses count
// of rr is not decremented: the slot is zeroed when the rule is freed.
func (g *Grammar) expandB(u symRef, us *symbol) {
	uKey := us.value
	rr := us.ruleOf()
	left, right := us.prev, us.next
	gh := g.rules[rr].guardSym
	first := g.sym(gh).next
	last := g.sym(gh).prev
	if g.sym(first).isGuard() {
		panic("sequitur: expanding empty rule")
	}
	leftS, rightS := g.sym(left), g.sym(right)
	// Evict u's two digrams where the index points at them: rr's slot is
	// freed below, and no digram keyed by it may outlive the rule.
	var leftKey, rightKey uint64
	leftGuard, rightGuard := leftS.isGuard(), rightS.isGuard()
	if !leftGuard {
		leftKey = leftS.value
		g.table.deleteIf(leftKey, uKey, left)
	}
	if !rightGuard {
		rightKey = rightS.value
		g.table.deleteIf(uKey, rightKey, u)
	}
	g.rhsSymbols--
	// Free u and splice the rule body in its place.
	*us = symbol{next: g.symFree}
	g.symFree = u
	firstS, lastS := g.sym(first), g.sym(last)
	leftS.next = first
	firstS.prev = left
	lastS.next = right
	rightS.prev = last
	g.liveRules--
	g.freeSym(gh)
	g.freeRule(rr)
	// Re-check the open seams. If the left one substituted, the right
	// one was handled by the recursive work.
	if !leftGuard && g.checkKeyed(left, leftS, leftKey, firstS.value) {
		return
	}
	if !rightGuard {
		g.checkKeyed(last, lastS, lastS.value, rightKey)
	}
}

// substituteB replaces the digram (h, h.next) with a reference to rule
// r. The digram's keys (a, b) are passed in, and indexed says whether
// the table entry for (a, b) points at h itself (true for the older,
// indexed occurrence; false for the newly formed one, whose entry points
// at the other occurrence).
//
// Unlinking h.next and then h one at a time, forgetting each one's
// digrams, would issue four index probes; two of them are provably dead
// and skipped:
//
//   - unlinking h.next forgets the digram *starting at h*, probing
//     (a, b) — that entry points at the matched occurrence, so it is a
//     hit only when indexed (then it must be deleted) and a guaranteed
//     miss otherwise;
//   - unlinking h afterwards forgets h's own digram: any entry pointing
//     at h must carry h's current digram key (the discipline Verify
//     enforces), which is (a, b) — already deleted or pointing
//     elsewhere — so the probe can never delete anything.
//
// The two replaced symbols are also not round-tripped through the
// freelist: h's slot is rewritten in place as the new nonterminal and
// only h.next's slot is freed.
func (g *Grammar) substituteB(h symRef, hs *symbol, r ruleRef, a, b uint64, indexed bool) {
	p := hs.prev
	x := hs.next
	xs := g.sym(x)
	xNext := xs.next
	xNextS := g.sym(xNext)
	if indexed {
		g.table.deleteIf(a, b, h)
	}
	xnGuard := xNextS.isGuard()
	var xnKey uint64
	if !xnGuard {
		// x's right digram may be indexed at x.
		xnKey = xNextS.value
		g.table.deleteIf(b, xnKey, x)
	}
	if xs.isNonterminal() {
		g.rules[xs.ruleOf()].uses--
	}
	ps := g.sym(p)
	pGuard := ps.isGuard()
	var pKey uint64
	if !pGuard {
		// The digram (p, h) may be indexed at p.
		pKey = ps.value
		g.table.deleteIf(pKey, a, p)
	}
	if hs.isNonterminal() {
		g.rules[hs.ruleOf()].uses--
	}
	// Free x; rewrite h's slot in place as the new nonterminal.
	*xs = symbol{next: g.symFree}
	g.symFree = x
	rKey := ^uint64(r)
	*hs = symbol{value: rKey, next: xNext, prev: p}
	xNextS.prev = h
	g.rhsSymbols--
	g.rules[r].uses++
	// Re-check the seams with their keys in hand. If the left seam
	// substituted, the right seam was handled by the recursive work.
	if !pGuard && g.checkKeyed(p, ps, pKey, rKey) {
		return
	}
	if !xnGuard {
		g.checkKeyed(h, hs, rKey, xnKey)
	}
}

// checkKeyed enforces digram uniqueness for the digram (h, h.next)
// whose keys (a, b) are known, the guard tests already done by the
// caller, and reports whether a substitution took place. hp is h
// resolved.
func (g *Grammar) checkKeyed(h symRef, hp *symbol, a, b uint64) bool {
	m := g.getOrSet(a, b, h)
	if m == nilSym || m == h {
		return false
	}
	if g.sym(m).next == h || hp.next == m {
		// Overlapping occurrence (run of identical symbols): leave it.
		return false
	}
	g.matchB(h, hp, m, a, b)
	return true
}
