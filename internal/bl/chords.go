package bl

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
)

// ChordPlan is the optimized instrumentation placement of Ball & Larus
// (MICRO 1996, §3.3): instead of adding an increment on every edge, a
// spanning tree of the (transformed) CFG is chosen and increments are
// placed only on the chords — the non-tree edges — with values derived
// from node potentials so that the register still sums to the unique path
// ID along every acyclic path. Tree edges carry no instrumentation at
// all, which on real CFGs removes instrumentation from most edges.
//
// Construction: take the acyclic transform used by Number (back edges
// replaced by ENTRY->header and source->EXIT pseudo edges), add the
// virtual edge EXIT->ENTRY, and build a spanning tree containing the
// virtual edge. Assign each node a potential phi by walking the tree from
// ENTRY (phi(ENTRY)=0; a tree edge a->b with value v forces
// phi(b)=phi(a)+v, traversed backwards phi(a)=phi(b)-v). Then for any
// edge e=(u,v),
//
//	inc(e) = val(e) - (phi(v) - phi(u))
//
// vanishes on tree edges, and along any entry-to-exit path the increments
// telescope: sum(inc) = sum(val) - (phi(EXIT) - phi(ENTRY)) = pathID,
// because the virtual edge pins phi(EXIT) = phi(ENTRY) = 0. Increments
// may be negative; the register is maintained as a signed value and is
// provably back in [0, NumPaths) at every emission point.
type ChordPlan struct {
	Num *Numbering

	// Inc[from][i] is the signed increment of the i-th successor edge of
	// block `from` (0 when the edge is a tree edge). Back edges hold 0
	// here; their pseudo edges are in BackEdge.
	Inc [][]int64

	// BackEdge maps each back edge to the signed increments of its two
	// pseudo edges: EmitAdd for source->EXIT (applied before emitting)
	// and Reset for ENTRY->header (the register's new value).
	BackEdge map[cfg.Edge]ChordBackEdge

	// Sites is the number of edges carrying a nonzero increment (the
	// instrumentation sites); TotalEdges counts all edges of the
	// transformed graph including pseudo edges.
	Sites, TotalEdges int
}

// ChordBackEdge is the chord instrumentation of one back edge.
type ChordBackEdge struct {
	EmitAdd int64
	Reset   int64
}

// edgeKind distinguishes the edges of the transformed graph.
type edgeKind uint8

const (
	realEdge edgeKind = iota
	pseudoEntry
	pseudoExit
	virtualEdge
)

type tEdge struct {
	u, v cfg.BlockID
	val  int64
	kind edgeKind
	// from/succIdx locate a real edge; header locates a pseudoEntry; back
	// locates a pseudoExit.
	succIdx int
	back    cfg.Edge
	header  cfg.BlockID
	weight  uint64
	inTree  bool
}

// EdgeWeights is an edge-frequency profile for one function, used to bias
// the spanning tree toward hot edges (Ball & Larus use Knuth's
// maximum-spanning-tree heuristic): a hot edge in the tree carries no
// instrumentation, so expected dynamic increment count is minimized.
type EdgeWeights struct {
	// Real[from][succIdx] is the execution count of that successor edge
	// (back edges included: a back edge's weight applies to both of its
	// pseudo edges).
	Real [][]uint64
}

// NewEdgeWeights allocates a zeroed profile shaped for g.
func NewEdgeWeights(g *cfg.Graph) *EdgeWeights {
	w := &EdgeWeights{Real: make([][]uint64, g.NumBlocks())}
	for _, b := range g.Blocks() {
		w.Real[b.ID] = make([]uint64, len(b.Succs))
	}
	return w
}

// BuildChords computes the chord-based placement for a numbering with an
// unweighted spanning tree (first-seen edges win ties).
func BuildChords(n *Numbering) *ChordPlan { return BuildChordsWeighted(n, nil) }

// BuildChordsWeighted computes the chord placement using a
// maximum-weight spanning tree over the given edge-frequency profile, so
// the hottest edges carry no instrumentation. A nil profile degenerates
// to BuildChords. The emitted path IDs are identical either way; only
// which edges carry increments changes.
func BuildChordsWeighted(n *Numbering, weights *EdgeWeights) *ChordPlan {
	g := n.Graph
	nBlocks := g.NumBlocks()

	weightOf := func(from cfg.BlockID, succIdx int) uint64 {
		if weights == nil {
			return 0
		}
		return weights.Real[from][succIdx]
	}

	// Collect the transformed graph's edges.
	var edges []*tEdge
	// The virtual edge comes first so the spanning tree always adopts it.
	edges = append(edges, &tEdge{u: g.Exit, v: g.Entry, val: 0, kind: virtualEdge})
	for _, b := range g.Blocks() {
		for si, succ := range b.Succs {
			if n.IsBack[b.ID][si] {
				be := cfg.Edge{From: b.ID, To: succ}
				instr := n.BackEdge[be]
				w := weightOf(b.ID, si)
				edges = append(edges,
					&tEdge{u: b.ID, v: g.Exit, val: int64(instr.EmitAdd), kind: pseudoExit, back: be, weight: w},
					&tEdge{u: g.Entry, v: succ, val: int64(instr.Reset), kind: pseudoEntry, header: succ, back: be, weight: w})
			} else {
				edges = append(edges, &tEdge{u: b.ID, v: succ, val: int64(n.EdgeVal[b.ID][si]), kind: realEdge, succIdx: si, weight: weightOf(b.ID, si)})
			}
		}
	}
	if weights != nil {
		// Maximum spanning tree: consider heavy edges first. Stable sort
		// keeps the deterministic tie-break of the unweighted variant
		// (the virtual edge stays first: no weight exceeds ^0).
		edges[0].weight = ^uint64(0)
		sort.SliceStable(edges, func(i, j int) bool { return edges[i].weight > edges[j].weight })
	}

	// Kruskal-style spanning tree over the undirected view (the graph is
	// connected: every block is reachable from entry and reaches exit).
	parent := make([]int32, nBlocks)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range edges {
		ru, rv := find(int32(e.u)), find(int32(e.v))
		if ru != rv {
			parent[ru] = rv
			e.inTree = true
		}
	}

	// Node potentials via BFS over tree edges (in both directions).
	type adj struct {
		e   *tEdge
		fwd bool
		to  cfg.BlockID
	}
	tree := make([][]adj, nBlocks)
	for _, e := range edges {
		if !e.inTree {
			continue
		}
		tree[e.u] = append(tree[e.u], adj{e: e, fwd: true, to: e.v})
		tree[e.v] = append(tree[e.v], adj{e: e, fwd: false, to: e.u})
	}
	phi := make([]int64, nBlocks)
	seen := make([]bool, nBlocks)
	queue := []cfg.BlockID{g.Entry}
	seen[g.Entry] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range tree[u] {
			if seen[a.to] {
				continue
			}
			if a.fwd {
				phi[a.to] = phi[u] + a.e.val
			} else {
				phi[a.to] = phi[u] - a.e.val
			}
			seen[a.to] = true
			queue = append(queue, a.to)
		}
	}

	plan := &ChordPlan{
		Num:      n,
		Inc:      make([][]int64, nBlocks),
		BackEdge: make(map[cfg.Edge]ChordBackEdge),
	}
	for _, b := range g.Blocks() {
		plan.Inc[b.ID] = make([]int64, len(b.Succs))
	}
	for _, e := range edges {
		if e.kind == virtualEdge {
			continue
		}
		plan.TotalEdges++
		inc := e.val - (phi[e.v] - phi[e.u])
		if e.inTree && inc != 0 {
			panic(fmt.Sprintf("bl: tree edge %d->%d has nonzero increment %d", e.u, e.v, inc))
		}
		if inc != 0 {
			plan.Sites++
		}
		switch e.kind {
		case realEdge:
			plan.Inc[e.u][e.succIdx] = inc
		case pseudoExit:
			cbe := plan.BackEdge[e.back]
			cbe.EmitAdd = inc
			plan.BackEdge[e.back] = cbe
		case pseudoEntry:
			cbe := plan.BackEdge[e.back]
			cbe.Reset = inc
			plan.BackEdge[e.back] = cbe
		}
	}
	return plan
}

// DynamicIncrements returns the number of register additions the plan
// executes under the given edge-frequency profile: one per taken
// non-tree real edge, plus one per taken back edge whose emit increment
// is nonzero (the reset is a constant store either way).
func (p *ChordPlan) DynamicIncrements(w *EdgeWeights) uint64 {
	g := p.Num.Graph
	var total uint64
	for _, b := range g.Blocks() {
		for si, succ := range b.Succs {
			freq := w.Real[b.ID][si]
			if p.Num.IsBack[b.ID][si] {
				if p.BackEdge[cfg.Edge{From: b.ID, To: succ}].EmitAdd != 0 {
					total += freq
				}
			} else if p.Inc[b.ID][si] != 0 {
				total += freq
			}
		}
	}
	return total
}

// TotalEdgeExecutions sums the profile's edge frequencies: the dynamic
// increment count of the naive every-edge placement.
func TotalEdgeExecutions(w *EdgeWeights) uint64 {
	var total uint64
	for _, row := range w.Real {
		for _, f := range row {
			total += f
		}
	}
	return total
}
