// Package engine is the single grammar analysis engine behind every
// compressed-trace analysis. A whole program path is a sequence of
// SEQUITUR grammars (one for a monolithic WPP, one per chunk for a
// chunked WPP); every analysis — hot-subpath search, path profiles,
// spectra — is a bottom-up pass over each grammar DAG with per-rule
// memoization (Analysis), run by the one chunk loop (EachChunk,
// EachAnalysis) on every chunk its source's holder (Chunks) gives, with
// boundary windows materialized for analyses whose windows slide across
// chunk seams (Boundary, CrossingWindows).
//
// Expressing analyses this way (following how Kini et al. frame race
// detection as a generic pass over an SLP grammar) means a new analysis
// writes one per-chunk pass and inherits chunking, parallelism, and
// determinism; it does not re-implement traversal. Each analysis adds a
// chunk's result to one accumulator as the chunk finishes, so it holds
// one chunk per worker, not all of them. Results are still identical for
// every worker count and every schedule: every accumulated quantity is a
// count, a sum does not depend on order, and every analysis sorts its
// output totally. Seam boundaries, which do depend on chunk order, are
// stored by chunk index.
package engine

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/sequitur"
)

// Analysis caches the per-grammar derived data every analysis shares: the
// memoized bottom-up quantities of one snapshot's rule DAG.
type Analysis struct {
	// Snap is the grammar under analysis.
	Snap *sequitur.Snapshot
	// ExpLen[r] is the expansion length of rule r.
	ExpLen []uint64
	// Uses[r] is the number of occurrences of rule r in the derivation
	// tree (rule 0 occurs once).
	Uses []uint64
	// CumLens[r][j] is the cumulative expansion length of rule r's RHS
	// after symbol j (CumLens[r][0] == 0).
	CumLens [][]uint64

	// order lists every rule, children before parents (topoOrder).
	order []int32

	// The window counts' symbol ranks, built once by rankTerminals:
	// dict lists the distinct terminals in ascending order, so rank k is
	// event dict[k], and ranked is Snap.Rules with every terminal's Value
	// replaced by its rank.
	rankOnce sync.Once
	dict     []uint64
	ranked   [][]sequitur.Sym

	// ends is the rank-end cache every count on this grammar shares
	// (rankEnds), built under endsMu.
	endsMu sync.Mutex
	ends   *rankEnds
}

// NewAnalysis computes the memoized per-rule data for one snapshot: one
// pass children first fills each rule's cumulative and total expansion
// lengths, and one parents first its use count.
func NewAnalysis(snap *sequitur.Snapshot) *Analysis {
	n := len(snap.Rules)
	a := &Analysis{Snap: snap, ExpLen: make([]uint64, n), Uses: make([]uint64, n), CumLens: make([][]uint64, n)}
	a.order = a.topoOrder()
	order := a.order
	// One backing array for every rule's table, as in Snapshot.
	size := 0
	for _, rhs := range snap.Rules {
		size += len(rhs) + 1
	}
	flat := make([]uint64, size)
	for r, rhs := range snap.Rules {
		a.CumLens[r] = flat[: len(rhs)+1 : len(rhs)+1]
		flat = flat[len(rhs)+1:]
	}
	for _, r := range order {
		rhs := snap.Rules[r]
		cum := a.CumLens[r]
		for j, s := range rhs {
			if s.IsRule() {
				cum[j+1] = cum[j] + a.ExpLen[s.Rule]
			} else {
				cum[j+1] = cum[j] + 1
			}
		}
		a.ExpLen[r] = cum[len(rhs)]
	}
	if n > 0 {
		a.Uses[0] = 1
	}
	for k := len(order) - 1; k >= 0; k-- {
		r := order[k]
		for _, s := range snap.Rules[r] {
			if s.IsRule() {
				a.Uses[s.Rule] += a.Uses[r]
			}
		}
	}
	return a
}

// Length is the expansion length of the start rule — the chunk's share
// of the trace. Zero for an empty grammar.
func (a *Analysis) Length() uint64 {
	if len(a.ExpLen) == 0 {
		return 0
	}
	return a.ExpLen[0]
}

// topoOrder returns every rule's index, reachable from the start rule
// or not, with every child before its parents.
func (a *Analysis) topoOrder() []int32 {
	n := len(a.Snap.Rules)
	state := make([]bool, n)
	order := make([]int32, 0, n)
	var visit func(int32)
	visit = func(r int32) {
		if state[r] {
			return
		}
		state[r] = true
		for _, s := range a.Snap.Rules[r] {
			if s.IsRule() {
				visit(s.Rule)
			}
		}
		order = append(order, r)
	}
	for r := range n {
		visit(int32(r))
	}
	return order
}

// Terminals visits every terminal occurrence in every rule body together
// with the rule's derivation-tree use count — the weighted-terminal pass
// frequency analyses are built on. Each distinct trace position is covered
// exactly once.
func (a *Analysis) Terminals(visit func(v uint64, uses uint64)) {
	for r, rhs := range a.Snap.Rules {
		uses := a.Uses[r]
		for _, s := range rhs {
			if !s.IsRule() {
				visit(s.Value, uses)
			}
		}
	}
}

// Collect appends the terminals of rule r's expansion in [start,
// start+length) to out, descending only the subtrees the range touches.
func (a *Analysis) Collect(r int32, start, length uint64, out []uint64) []uint64 {
	rhs := a.Snap.Rules[r]
	cum := a.CumLens[r]
	// Binary search for the first RHS symbol whose span contains start.
	// A range from the rule's first position, such as one entering a
	// child at its head, starts at symbol 0.
	j := 0
	if start > 0 {
		j = sort.Search(len(rhs), func(j int) bool { return cum[j+1] > start })
	}
	for ; length > 0 && j < len(rhs); j++ {
		s := rhs[j]
		if !s.IsRule() {
			out = append(out, s.Value)
			length--
			start = cum[j+1]
			continue
		}
		childStart := start - cum[j]
		take := min(length, a.ExpLen[s.Rule]-childStart)
		out = a.Collect(s.Rule, childStart, take, out)
		length -= take
		start = cum[j+1]
	}
	return out
}

// maxEnd caps the width of the rule ends rankEnds caches, so the cache
// stays within a few times the grammar's own size whatever the window
// length.
const maxEnd = 32

// rankEnds is Collect over the ranked rule bodies, for the window walk:
// it appends ranks, not events, and it caches, for every rule, the ranks
// of the first and of the last min(k, length) terminals of its
// expansion. A run the walk collects reaches at most MaxLen-1 positions
// past a body symbol's end on either side, so with k = MaxLen-1 it copies
// the part of the run that covers a child's head or tail from the cache
// instead of descending into the child. A cache of any width collects
// the same ranks.
type rankEnds struct {
	a *Analysis
	k uint64
	// heads[r] holds the ranks of rule r's first terminals, tails[r]
	// those of its last ones, both in trace order.
	heads, tails [][]uint32
}

// rankEnds returns the grammar's rank-end cache, at least min(k, maxEnd)
// wide. The counts on one grammar share one cache: the first count
// builds it, and a later count that asks for a wider one replaces it, so
// a search whose first pass asks for the narrower width builds it twice
// at most. rankTerminals must have run.
func (a *Analysis) rankEnds(k int) *rankEnds {
	k = min(k, maxEnd)
	a.endsMu.Lock()
	defer a.endsMu.Unlock()
	if a.ends == nil || a.ends.k < uint64(k) {
		a.ends = newRankEnds(a, k)
	}
	return a.ends
}

// newRankEnds builds the cache of width min(k, maxEnd), children before
// parents. rankTerminals must have run.
func newRankEnds(a *Analysis, k int) *rankEnds {
	k = min(k, maxEnd)
	n := len(a.ranked)
	e := &rankEnds{a: a, k: uint64(k), heads: make([][]uint32, n), tails: make([][]uint32, n)}
	size := 0
	for _, l := range a.ExpLen {
		size += 2 * int(min(uint64(k), l))
	}
	flat := make([]uint32, 0, size)
	for _, r := range a.order {
		rhs := a.ranked[r]
		from := len(flat)
		for j := 0; j < len(rhs) && len(flat)-from < k; j++ {
			if s := rhs[j]; s.IsRule() {
				h := e.heads[s.Rule]
				flat = append(flat, h[:min(len(h), k-(len(flat)-from))]...)
			} else {
				flat = append(flat, uint32(s.Value))
			}
		}
		e.heads[r] = flat[from:len(flat):len(flat)]
		// The tail is gathered last first, then put in trace order.
		from = len(flat)
		for j := len(rhs) - 1; j >= 0 && len(flat)-from < k; j-- {
			if s := rhs[j]; s.IsRule() {
				t := e.tails[s.Rule]
				for i := len(t) - 1; i >= 0 && len(flat)-from < k; i-- {
					flat = append(flat, t[i])
				}
			} else {
				flat = append(flat, uint32(s.Value))
			}
		}
		slices.Reverse(flat[from:])
		e.tails[r] = flat[from:len(flat):len(flat)]
	}
	return e
}

// collect appends the ranks of the terminals of rule r's expansion in
// [start, start+length) to out. j is the index of a body symbol at or
// before the one holding start, from which collect looks forward;
// collect returns out and the index of the symbol holding the last
// position it collected. A walk moves forward through a rule, so it
// hands each call the index the previous one returned, and no call
// searches the body.
func (e *rankEnds) collect(r int32, j int, start, length uint64, out []uint32) ([]uint32, int) {
	if length == 0 {
		return out, j
	}
	a := e.a
	rhs := a.ranked[r]
	cum := a.CumLens[r]
	for cum[j+1] <= start {
		j++
	}
	for ; ; j++ {
		s := rhs[j]
		if !s.IsRule() {
			out = append(out, uint32(s.Value))
			length--
		} else {
			childStart := start - cum[j]
			n := a.ExpLen[s.Rule]
			take := min(length, n-childStart)
			switch {
			case take <= e.k && childStart == 0:
				out = append(out, e.heads[s.Rule][:take]...)
			case take <= e.k && childStart+take == n:
				t := e.tails[s.Rule]
				out = append(out, t[uint64(len(t))-take:]...)
			default:
				// Inside a child, the first symbol of a range that starts
				// past its head is found by binary search.
				c := 0
				if childStart > 0 {
					ccum := a.CumLens[s.Rule]
					c = sort.Search(len(ccum)-1, func(c int) bool { return ccum[c+1] > childStart })
				}
				out, _ = e.collect(s.Rule, c, childStart, take, out)
			}
			length -= take
		}
		if length == 0 {
			return out, j
		}
		start = cum[j+1]
	}
}

// rankTerminals builds dict and ranked on first use; the parts
// of one grammar share them, and analyses that never count windows never
// build them.
func (a *Analysis) rankTerminals() {
	a.rankOnce.Do(func() {
		rank := map[uint64]uint64{}
		size := 0
		for _, rhs := range a.Snap.Rules {
			size += len(rhs)
			for _, s := range rhs {
				if !s.IsRule() {
					rank[s.Value] = 0
				}
			}
		}
		a.dict = make([]uint64, 0, len(rank))
		for v := range rank {
			a.dict = append(a.dict, v)
		}
		slices.Sort(a.dict)
		for k, v := range a.dict {
			rank[v] = uint64(k)
		}
		// One backing array for every ranked body, as in Snapshot.
		flat := make([]sequitur.Sym, size)
		a.ranked = make([][]sequitur.Sym, len(a.Snap.Rules))
		for r, rhs := range a.Snap.Rules {
			body := flat[:len(rhs):len(rhs)]
			flat = flat[len(rhs):]
			for j, s := range rhs {
				if !s.IsRule() {
					s.Value = rank[s.Value]
				}
				body[j] = s
			}
			a.ranked[r] = body
		}
	})
}
