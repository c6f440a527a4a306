// Package sequitur implements the SEQUITUR online grammar-compression
// algorithm of Nevill-Manning and Witten ("Linear-time, incremental
// hierarchy inference for compression", DCC 1997), the compressor at the
// heart of the whole-program-path representation.
//
// SEQUITUR consumes a sequence of symbols one at a time and maintains a
// context-free grammar that generates exactly the sequence seen so far,
// enforcing two invariants:
//
//   - digram uniqueness: no pair of adjacent symbols appears more than
//     once in the grammar (overlapping repetitions excepted), and
//   - rule utility: every rule other than the start rule is used at least
//     twice.
//
// The grammar is a DAG whose shape exposes the repetition structure of the
// input, which is what lets whole-program-path analyses (such as the hot
// subpath search in package hotpath) run directly on the compressed form.
//
// The package has one implementation of the SEQUITUR update, the append
// engine in batch.go: AppendBatch feeds a slice of terminals, and Append
// is the same engine on a one-element slice. A transliteration of the
// textbook pointer/map implementation (oracle_test.go) is the reference
// it is tested against.
//
// Every trace event of a build funnels through that engine, so the data
// layout is built for the allocator to stay out of the way: 16-byte
// symbols live in one flat slice addressed by dense uint32 handles
// (arena.go) and the digram index is an open-addressing hash table
// (digrams.go). Steady-state appends allocate nothing, and Reset rewinds
// a grammar for reuse while keeping the symbol slice and table capacity
// — the contract the pooled per-worker grammars in the parallel builder
// rely on.
//
// Terminal values must be below MaxTerminal; the trace-event encoding in
// package trace stays far below that bound.
package sequitur

import (
	"fmt"

	"repro/internal/obsv"
)

// MaxTerminal is the exclusive upper bound on terminal symbol values.
// Values at or above it are reserved to encode rule references inside the
// digram index.
const MaxTerminal = uint64(1) << 62

// digram is the index key for a pair of adjacent symbols. Terminals are
// keyed by value; nonterminals by ^(rule slot), which cannot collide with
// a terminal because terminals are < MaxTerminal. A slot is recycled only
// after its rule's last use is freed and every digram keyed by it is
// evicted, so at any instant a key names one live rule, and the index
// holds the textbook's contents (keyed by rule ids) up to renaming.
type digram struct {
	a, b uint64
}

// keyOf returns the digram key of one non-guard symbol: its value,
// which for a nonterminal is its rule's complemented slot.
func (g *Grammar) keyOf(h symRef) uint64 { return g.sym(h).value }

// digramAt returns the key of the digram starting at h.
func (g *Grammar) digramAt(h symRef) digram {
	return digram{g.keyOf(h), g.keyOf(g.sym(h).next)}
}

// Options tunes the algorithm, for ablation experiments.
type Options struct {
	// DisableRuleUtility turns off the rule-utility invariant: rules used
	// only once are kept instead of being inlined. The grammar still
	// generates the same string but is larger; the whole-program-path
	// evaluation uses this to quantify what the invariant buys.
	DisableRuleUtility bool
}

// Metrics is the grammar's observability hook set. All fields may be nil
// (the zero value): obsv metrics are nil-safe no-ops, and the grammar
// additionally skips the per-batch gauge updates entirely when no hook
// is installed, so an uninstrumented append pays one boolean test.
type Metrics struct {
	// Terminals counts input symbols appended.
	Terminals *obsv.Counter
	// RulesCreated counts new rules minted for repeated digrams;
	// RulesReused counts repeated digrams resolved by reusing an existing
	// whole-body rule (SEQUITUR's structure-sharing win).
	RulesCreated *obsv.Counter
	RulesReused  *obsv.Counter
	// DigramTable tracks the live size of the digram index, the
	// algorithm's dominant memory term.
	DigramTable *obsv.Gauge
}

// Grammar is an online SEQUITUR grammar. The zero value is not usable;
// call New.
type Grammar struct {
	// Symbol arena: one flat slice whose length is the reservation
	// (arena.go), a bump cursor, and an intrusive freelist threaded
	// through the next fields of freed symbols.
	syms    []symbol
	symUsed uint32
	symFree symRef

	// Rule arena: dense slice plus a recycle stack of freed slots.
	rules     []rule
	freeRules []ruleRef

	// table is the open-addressing digram index.
	table digramTable

	start  ruleRef
	nextID uint64
	opts   Options
	// terminals is the number of input symbols appended so far.
	terminals uint64
	// liveRules counts rules currently in the grammar, including start.
	liveRules int
	// rhsSymbols counts symbols currently on all right-hand sides.
	rhsSymbols int
	// metrics holds the observability hooks; instrumented caches whether
	// any hook is installed so the hot path can skip them in one test.
	metrics      Metrics
	instrumented bool
	// one is Append's one-element batch. A stack array would do in this
	// package, but once Append is inlined into another package the
	// compiler cannot see that the generic engine keeps no reference to
	// its slice, and would move the array to the heap on every call.
	one [1]uint64
}

// SetMetrics installs observability hooks. The zero Metrics disables
// instrumentation. Reset keeps the hooks, so pooled grammars stay
// instrumented across reuse.
func (g *Grammar) SetMetrics(m Metrics) {
	g.metrics = m
	g.instrumented = m != Metrics{}
}

// New returns an empty grammar with default options.
func New() *Grammar { return NewWithOptions(Options{}) }

// NewWithOptions returns an empty grammar with the given options.
func NewWithOptions(opts Options) *Grammar {
	g := &Grammar{
		nextID:  1,
		opts:    opts,
		symUsed: 1, // handle 0 is the nil sentinel
		rules:   make([]rule, 0, 64),
	}
	g.table.init(minTableCap)
	g.reserve(reserveFor(0, 0))
	g.start = g.allocRule(0)
	g.liveRules = 1
	return g
}

// Reset returns the grammar to its freshly constructed state, keeping the
// symbol slice, the rule arena's storage, and the digram table's
// capacity. A reset grammar is algorithmically indistinguishable from
// New(): feeding it the same terminals yields an identical Snapshot,
// because the index is only ever used for point lookups, never iterated.
// Worker pools reuse one grammar per worker across many chunk
// compressions, so steady-state chunk compression allocates nothing but
// the snapshots.
func (g *Grammar) Reset() {
	g.table.reset()
	g.symUsed = 1
	g.symFree = nilSym
	g.rules = g.rules[:0]
	g.freeRules = g.freeRules[:0]
	g.nextID = 1
	g.terminals = 0
	g.rhsSymbols = 0
	g.start = g.allocRule(0)
	g.liveRules = 1
	g.metrics.DigramTable.Set(0)
}

// Append feeds one terminal to the grammar: the append engine
// (AppendBatchOf) run on a one-element batch. It panics if
// v >= MaxTerminal.
func (g *Grammar) Append(v uint64) {
	g.one[0] = v
	AppendBatchOf(g, g.one[:])
}

// Len reports the number of terminals appended so far.
func (g *Grammar) Len() uint64 { return g.terminals }

// Stats summarizes the size of a grammar.
type Stats struct {
	// Terminals is the number of input symbols consumed.
	Terminals uint64
	// Rules is the number of live rules, including the start rule.
	Rules int
	// RHSSymbols is the total number of symbols on all right-hand sides;
	// with Rules it is the natural measure of grammar size.
	RHSSymbols int
}

// Stats returns the current grammar size statistics.
func (g *Grammar) Stats() Stats {
	return Stats{Terminals: g.terminals, Rules: g.liveRules, RHSSymbols: g.rhsSymbols}
}

// Sym is one right-hand-side element in a Snapshot: either a terminal
// value or a reference to another rule by dense index.
type Sym struct {
	// Rule is the referenced rule's index in Snapshot.Rules, or -1 for a
	// terminal.
	Rule int32
	// Value is the terminal value when Rule < 0.
	Value uint64
}

// IsRule reports whether the symbol references a rule.
func (s Sym) IsRule() bool { return s.Rule >= 0 }

// Snapshot is an immutable array representation of a grammar, convenient
// for analysis and serialization. Rules[0] is the start rule.
type Snapshot struct {
	Rules [][]Sym
}

// Snapshot converts the grammar's current state into the array form. Rule
// indices are assigned in first-reference order from the start rule, so
// equal grammars snapshot identically. Rule discovery runs on a dense
// slice keyed by the arena index, and all right-hand sides share one
// backing array sized by the live symbol count, so a snapshot costs a
// handful of allocations however many rules it has.
func (g *Grammar) Snapshot() *Snapshot {
	indexOf := make([]int32, len(g.rules))
	for i := range indexOf {
		indexOf[i] = -1
	}
	indexOf[g.start] = 0
	order := make([]ruleRef, 1, g.liveRules)
	order[0] = g.start
	// Discover rules breadth-first in reference order.
	for i := 0; i < len(order); i++ {
		for h := g.firstOf(order[i]); !g.sym(h).isGuard(); h = g.sym(h).next {
			s := g.sym(h)
			if r := s.ruleOf(); s.isNonterminal() && indexOf[r] < 0 {
				indexOf[r] = int32(len(order))
				order = append(order, r)
			}
		}
	}
	backing := make([]Sym, 0, g.rhsSymbols)
	snap := &Snapshot{Rules: make([][]Sym, len(order))}
	for i, r := range order {
		start := len(backing)
		for h := g.firstOf(r); !g.sym(h).isGuard(); h = g.sym(h).next {
			s := g.sym(h)
			if s.isNonterminal() {
				backing = append(backing, Sym{Rule: indexOf[s.ruleOf()]})
			} else {
				backing = append(backing, Sym{Rule: -1, Value: s.value})
			}
		}
		if start < len(backing) {
			snap.Rules[i] = backing[start:len(backing):len(backing)]
		}
	}
	return snap
}

// Expand yields the full expansion of rule ri in the snapshot.
func (sn *Snapshot) Expand(ri int, yield func(uint64) bool) bool {
	for _, s := range sn.Rules[ri] {
		if s.IsRule() {
			if !sn.Expand(int(s.Rule), yield) {
				return false
			}
		} else if !yield(s.Value) {
			return false
		}
	}
	return true
}

// Verify checks the structural invariants of the grammar:
//
//   - linked-list integrity of every rule body, and every nonterminal
//     refers to a live rule slot whose guard carries that slot,
//   - every live rule other than the start rule is referenced >= 2 times
//     and use counts match actual references (rule utility),
//   - size bookkeeping (liveRules, rhsSymbols) matches the structure,
//   - every digram-index slot points at a live symbol whose current
//     digram matches the slot's fingerprint, no digram is indexed
//     twice, and every slot lies on its digram's probe chain.
//
// Digram uniqueness is deliberately NOT enforced exactly: as in
// Nevill-Manning and Witten's published implementation, seam handling
// around substitutions and rule expansion can leave rare duplicate or
// unindexed digrams. Snapshot.DigramDuplicates and UnindexedDigrams
// report how many exist in each direction of the index/chain
// cross-check; tests
// bound them rather than requiring zero. Verify is meant for tests; it
// walks the whole grammar.
//
// The index cross-check is also what makes arena recycling safe to
// trust: a prematurely freed symbol whose slot was reused would surface
// here as an entry whose key no longer matches the slot's digram, and a
// rule slot recycled while a digram keyed by it stayed indexed, as an
// entry whose symbol no longer carries that key.
func (g *Grammar) Verify() error {
	seen := map[ruleRef]bool{g.start: true}
	queue := []ruleRef{g.start}
	refCount := map[ruleRef]int{}
	symPos := map[symRef]digram{}
	totalRHS := 0
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		i := 0
		for h := g.firstOf(r); !g.sym(h).isGuard(); h = g.sym(h).next {
			s := g.sym(h)
			if g.sym(s.next).prev != h || g.sym(s.prev).next != h {
				return fmt.Errorf("sequitur: rule %d: broken links at position %d", g.rules[r].id, i)
			}
			if s.isNonterminal() {
				sr := s.ruleOf()
				if !g.liveSlot(sr) {
					return fmt.Errorf("sequitur: rule %d: nonterminal at position %d carries key %d, not a live rule slot's", g.rules[r].id, i, s.value)
				}
				refCount[sr]++
				if !seen[sr] {
					seen[sr] = true
					queue = append(queue, sr)
				}
			}
			if !g.sym(s.next).isGuard() {
				symPos[h] = g.digramAt(h)
			}
			i++
		}
		totalRHS += i
		if r != g.start && i < 2 {
			return fmt.Errorf("sequitur: rule %d has body of length %d", g.rules[r].id, i)
		}
	}
	if len(seen) != g.liveRules {
		return fmt.Errorf("sequitur: liveRules=%d but %d rules reachable", g.liveRules, len(seen))
	}
	if totalRHS != g.rhsSymbols {
		return fmt.Errorf("sequitur: rhsSymbols=%d but %d symbols present", g.rhsSymbols, totalRHS)
	}
	for r, n := range refCount {
		if int(g.rules[r].uses) != n {
			return fmt.Errorf("sequitur: rule %d uses=%d but referenced %d times", g.rules[r].id, g.rules[r].uses, n)
		}
		if n < 2 && !g.opts.DisableRuleUtility {
			return fmt.Errorf("sequitur: rule %d referenced only %d time(s)", g.rules[r].id, n)
		}
	}
	live := 0
	indexed := map[digram]bool{}
	for i, e := range g.table.slots {
		if e.sym == nilSym {
			continue
		}
		live++
		cur, ok := symPos[e.sym]
		if !ok {
			return fmt.Errorf("sequitur: index slot %d points at a dead or boundary symbol", i)
		}
		h := uint32(digramHash(cur.a, cur.b))
		if e.h32 != h {
			return fmt.Errorf("sequitur: index slot %d has fingerprint %#x but its symbol's digram (%d,%d) hashes to %#x", i, e.h32, cur.a, cur.b, h)
		}
		if indexed[cur] {
			return fmt.Errorf("sequitur: digram (%d,%d) is indexed twice", cur.a, cur.b)
		}
		indexed[cur] = true
		if at := g.table.find(h, e.sym); at != i {
			return fmt.Errorf("sequitur: index slot %d is not on its digram's probe chain", i)
		}
	}
	if live != g.table.live {
		return fmt.Errorf("sequitur: digram table live=%d but %d entries occupied", g.table.live, live)
	}
	return nil
}

// liveSlot reports whether r is an allocated rule slot whose guard
// carries r: a freed slot is zeroed, so its guard handle is nilSym.
func (g *Grammar) liveSlot(r ruleRef) bool {
	if int(r) >= len(g.rules) || g.rules[r].guardSym == nilSym {
		return false
	}
	gs := g.sym(g.rules[r].guardSym)
	return gs.isGuard() && ruleRef(gs.value) == r
}
