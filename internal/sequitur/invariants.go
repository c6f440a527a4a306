package sequitur

// This file holds the invariant probes used by the artifact verifier
// (internal/wpp) and the fuzz harnesses: digram-index cross-checks on the
// live grammar and digram/utility/reachability measures on snapshots.

// UnindexedDigrams counts distinct digrams that occur in the grammar's
// symbol chains but have no entry in the digram index — the "missing
// entries" direction of the index/chain cross-check (Verify covers the
// stale-entry direction). As with Snapshot.DigramDuplicates, seam
// handling around substitution and rule expansion legitimately leaves a
// few of these, so tests bound the count rather than demanding zero.
func (g *Grammar) UnindexedDigrams() int {
	seen := map[ruleRef]bool{g.start: true}
	queue := []ruleRef{g.start}
	chain := map[digram]bool{}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		prevOverlap := false
		for h := g.firstOf(r); !g.sym(h).isGuard(); h = g.sym(h).next {
			s := g.sym(h)
			if sr := s.ruleOf(); s.isNonterminal() && !seen[sr] {
				seen[sr] = true
				queue = append(queue, sr)
			}
			if g.sym(s.next).isGuard() {
				continue
			}
			d := g.digramAt(h)
			// Skip the second of two overlapping occurrences (aaa); the
			// index never holds those.
			if !g.sym(s.prev).isGuard() && g.keyOf(s.prev) == d.a && d.a == d.b && !prevOverlap {
				prevOverlap = true
				continue
			}
			prevOverlap = false
			chain[d] = true
		}
	}
	for _, e := range g.table.slots {
		if e.sym != nilSym {
			delete(chain, g.digramAt(e.sym))
		}
	}
	return len(chain)
}

// snapKey mirrors keyOf for the array form: terminals by value, rule
// references by complemented index (terminals are < MaxTerminal, so the
// spaces cannot collide).
func snapKey(s Sym) uint64 {
	if s.IsRule() {
		return ^uint64(s.Rule)
	}
	return s.Value
}

// DigramDuplicates counts digrams occurring more than once across all of
// the snapshot's rule bodies, ignoring immediately overlapping
// occurrences within runs of identical symbols. Tests take it from a
// live grammar's Snapshot, and the artifact verifier from decoded
// chunks, so both are held to the same bound.
func (sn *Snapshot) DigramDuplicates() int {
	count := map[digram]int{}
	dups := 0
	for _, rhs := range sn.Rules {
		prevOverlap := false
		for i := 0; i+1 < len(rhs); i++ {
			d := digram{snapKey(rhs[i]), snapKey(rhs[i+1])}
			if i > 0 && snapKey(rhs[i-1]) == d.a && d.a == d.b && !prevOverlap {
				prevOverlap = true
				continue
			}
			prevOverlap = false
			count[d]++
			if count[d] > 1 {
				dups++
			}
		}
	}
	return dups
}

// RuleUses returns how many times each rule is referenced on the
// right-hand sides of the snapshot's rules. Rules[0] (the start rule) is
// used zero times in a well-formed grammar; every other rule must be used
// at least twice (rule utility).
func (sn *Snapshot) RuleUses() []int {
	uses := make([]int, len(sn.Rules))
	for _, rhs := range sn.Rules {
		for _, s := range rhs {
			if s.IsRule() && int(s.Rule) < len(uses) {
				uses[s.Rule]++
			}
		}
	}
	return uses
}

// UnreachableRules returns the indices of rules not reachable from the
// start rule. Snapshot always emits a fully reachable grammar; a decoded
// artifact carrying dead rules was not produced by this package.
func (sn *Snapshot) UnreachableRules() []int {
	if len(sn.Rules) == 0 {
		return nil
	}
	seen := make([]bool, len(sn.Rules))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range sn.Rules[i] {
			if s.IsRule() && int(s.Rule) < len(seen) && !seen[s.Rule] {
				seen[s.Rule] = true
				stack = append(stack, int(s.Rule))
			}
		}
	}
	var dead []int
	for i, ok := range seen {
		if !ok {
			dead = append(dead, i)
		}
	}
	return dead
}
