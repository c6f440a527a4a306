// Package dataflow is a generic iterative dataflow framework over the
// repository's control-flow graphs (package cfg), with concrete analyses
// over the wlc register IR: constant/interval propagation with branch
// refinement and reachability-under-facts. On top of the constant
// lattice it implements feasible-path analysis — classifying every
// Ball–Larus path ID of a function as statically feasible or infeasible
// — and an IR-level dead-branch/unreachable-block elimination pass.
//
// The solver is the classic forward worklist algorithm: blocks are
// visited in reverse postorder and re-queued whenever an input fact
// changes, until a fixpoint. The fact domain is supplied by the
// Problem; the solver only requires a bottom element, a join, and
// monotone transfer functions. A convergence guard bounds the visits
// per block, so a non-monotone or infinitely-ascending problem fails
// loudly instead of spinning.
package dataflow

import (
	"fmt"

	"repro/internal/cfg"
)

// Problem describes one forward dataflow analysis over a single graph:
// facts propagate along edges from the entry. F is the fact attached to
// each block boundary.
type Problem[F any] struct {
	// Bottom returns the identity of Join: the fact of an unreached
	// block boundary.
	Bottom func() F

	// Boundary returns the fact entering the graph's entry block.
	Boundary func() F

	// IsBottom reports whether a fact is still the unreached bottom.
	// Transfer is skipped for bottom inputs (an unreached block
	// contributes nothing), keeping unreachable code invisible to the
	// analysis. Optional; nil means no fact is treated as bottom.
	IsBottom func(F) bool

	// Join merges src into dst and reports whether dst changed. dst may
	// be mutated and must be returned.
	Join func(dst, src F) (F, bool)

	// Transfer computes the fact leaving block b from the fact entering
	// it. The input fact must not be mutated; return a fresh or reused
	// value.
	Transfer func(b cfg.BlockID, in F) F

	// EdgeTransfer, if non-nil, refines the fact flowing along the
	// si-th successor edge of block from. It returns the refined fact
	// and whether the edge is feasible at all; infeasible edges
	// contribute nothing to their target, which is how constant branch
	// conditions prune paths. The input must not be mutated.
	EdgeTransfer func(from cfg.BlockID, si int, out F) (F, bool)

	// MaxVisits caps the number of times any one block is transferred;
	// exceeding it fails the solve. 0 means the default guard.
	MaxVisits int
}

// Result holds the fixpoint of one solve.
type Result[F any] struct {
	// In[b] is the fact entering block b, before its code.
	In []F
	// Out[b] is the fact leaving block b, after its code.
	Out []F
	// EdgeFeasible[b][si] reports whether the si-th successor edge of b
	// carried a feasible fact at the fixpoint. All-true unless the
	// problem has an EdgeTransfer.
	EdgeFeasible [][]bool
	// Visits[b] counts how many times b was transferred, a measure of
	// convergence behavior.
	Visits []int
}

// defaultMaxVisits bounds the per-block visit count. Lattices used here
// stabilize in a handful of passes (interval propagation widens); 64 is
// far above any legitimate convergence and far below a spin.
const defaultMaxVisits = 64

// Solve runs the worklist algorithm for p over g to a fixpoint. The
// graph must be frozen (predecessor lists computed).
func Solve[F any](g *cfg.Graph, p Problem[F]) (*Result[F], error) {
	maxVisits := p.MaxVisits
	if maxVisits == 0 {
		maxVisits = defaultMaxVisits
	}
	n := g.NumBlocks()
	res := &Result[F]{
		In:           make([]F, n),
		Out:          make([]F, n),
		EdgeFeasible: make([][]bool, n),
		Visits:       make([]int, n),
	}
	for _, b := range g.Blocks() {
		res.In[b.ID] = p.Bottom()
		res.Out[b.ID] = p.Bottom()
		res.EdgeFeasible[b.ID] = make([]bool, len(b.Succs))
		if p.EdgeTransfer == nil {
			for i := range res.EdgeFeasible[b.ID] {
				res.EdgeFeasible[b.ID][i] = true
			}
		}
	}

	// Visit order: reverse postorder (predecessors mostly before
	// successors).
	order := g.ReversePostorder()
	pos := make([]int, n) // block -> index in order
	for i, b := range order {
		pos[b] = i
	}

	res.In[g.Entry] = p.Boundary()

	inQueue := make([]bool, n)
	queue := append([]cfg.BlockID(nil), order...)
	for i := range inQueue {
		inQueue[i] = true
	}
	// pop takes the queued block earliest in visit order, keeping the
	// iteration close to a priority worklist without a heap: scan cost
	// is fine at CFG sizes.
	pop := func() cfg.BlockID {
		best := -1
		for _, b := range queue {
			if inQueue[b] && (best == -1 || pos[b] < pos[cfg.BlockID(best)]) {
				best = int(b)
			}
		}
		inQueue[best] = false
		// Compact the queue lazily.
		nq := queue[:0]
		for _, b := range queue {
			if inQueue[b] {
				nq = append(nq, b)
			}
		}
		queue = nq
		return cfg.BlockID(best)
	}
	push := func(b cfg.BlockID) {
		if !inQueue[b] {
			inQueue[b] = true
			queue = append(queue, b)
		}
	}

	for len(queue) > 0 {
		b := pop()
		res.Visits[b]++
		if res.Visits[b] > maxVisits {
			return nil, fmt.Errorf("dataflow: %s: block %d transferred more than %d times without converging (non-monotone transfer or unbounded lattice?)",
				g.Name, b, maxVisits)
		}
		var out F
		if p.IsBottom != nil && p.IsBottom(res.In[b]) {
			out = p.Bottom()
		} else {
			out = p.Transfer(b, res.In[b])
		}
		res.Out[b] = out
		for si, t := range g.Block(b).Succs {
			flow := out
			if p.EdgeTransfer != nil {
				if p.IsBottom != nil && p.IsBottom(out) {
					res.EdgeFeasible[b][si] = false
					continue
				}
				refined, ok := p.EdgeTransfer(b, si, out)
				res.EdgeFeasible[b][si] = ok
				if !ok {
					continue
				}
				flow = refined
			}
			joined, changed := p.Join(res.In[t], flow)
			res.In[t] = joined
			if changed {
				push(t)
			}
		}
	}
	return res, nil
}
