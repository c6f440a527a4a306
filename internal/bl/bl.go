// Package bl implements Ball–Larus path numbering and the instrumentation
// plan used to collect acyclic-path traces (Ball & Larus, "Efficient Path
// Profiling", MICRO 1996), in the trace-emitting variant used by whole
// program paths (Larus, PLDI 1999): rather than incrementing a counter,
// the instrumentation emits the finished path ID at the function exit and
// at every back edge.
//
// The numbering assigns each edge of the acyclic transform of a CFG an
// integer value such that the sum of values along any entry-to-exit path
// is a unique ID in [0, NumPaths). Loops are handled by splitting around
// back edges: a back edge u->h contributes two pseudo edges, u->EXIT
// (terminating the current acyclic path) and ENTRY->h (starting the next
// one). At run time the instrumented program keeps a register r; taking
// edge e performs r += Val(e); at EXIT it emits r; at a back edge u->h it
// emits r + EmitAdd(u->h) and resets r to Reset(u->h).
package bl

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cfg"
)

// BackEdgeInstr is the instrumentation attached to one back edge u->h.
type BackEdgeInstr struct {
	// EmitAdd is added to the path register before emitting when the back
	// edge is taken. It is the value of the pseudo edge u->EXIT.
	EmitAdd uint64
	// Reset is the new value of the path register after emitting. It is
	// the value of the pseudo edge ENTRY->h.
	Reset uint64
}

// Numbering is the Ball–Larus numbering of one function's CFG together
// with everything needed both to instrument an execution and to map path
// IDs back to block sequences.
type Numbering struct {
	Graph *cfg.Graph

	// NumPaths is the number of distinct acyclic paths; every emitted path
	// ID lies in [0, NumPaths).
	NumPaths uint64

	// EdgeVal[from][i] is the value of the i-th successor edge of block
	// `from` (indexed parallel to Graph.Block(from).Succs). Back edges
	// carry value 0 here; their effect is in BackEdge.
	EdgeVal [][]uint64

	// IsBack[from][i] reports whether the i-th successor edge of `from` is
	// a back edge.
	IsBack [][]bool

	// BackEdge maps a back edge to its instrumentation.
	BackEdge map[cfg.Edge]BackEdgeInstr

	// numPathsFrom[b] is the number of acyclic paths from b to EXIT in the
	// transformed DAG, used by Regenerate.
	numPathsFrom []uint64

	// entryReset[h] is the pseudo-edge value Val(ENTRY->h) for loop
	// headers h, or ^0 if h is not a loop header.
	entryReset []uint64

	// pathCache memoizes Regenerate results, guarded by cacheMu so a
	// Numbering can be shared by concurrent readers (the ingestion
	// daemon prices paths for many sessions off one compiled program).
	cacheMu   sync.Mutex
	pathCache map[uint64][]cfg.BlockID
}

// MaxPaths bounds the number of acyclic paths per function. Functions
// exceeding it are rejected; in the paper's tooling such functions fall
// back to edge profiling. 2^40 leaves room to pack (funcID, pathID) pairs
// into a single uint64 trace event.
const MaxPaths = uint64(1) << 40

// Number computes the Ball–Larus numbering for g. The graph must be
// frozen (Finish called) and reducible.
func Number(g *cfg.Graph) (*Numbering, error) {
	backList, err := g.BackEdges()
	if err != nil {
		return nil, err
	}
	isBackEdge := make(map[cfg.Edge]bool, len(backList))
	backTargets := map[cfg.BlockID]bool{}
	for _, e := range backList {
		isBackEdge[e] = true
		backTargets[e.To] = true
	}

	n := g.NumBlocks()
	// Topological order of the acyclic transform (back edges removed).
	// Kahn's algorithm over non-back edges.
	indeg := make([]int, n)
	for _, b := range g.Blocks() {
		for _, s := range b.Succs {
			if !isBackEdge[cfg.Edge{From: b.ID, To: s}] {
				indeg[s]++
			}
		}
	}
	topo := make([]cfg.BlockID, 0, n)
	var queue []cfg.BlockID
	for _, b := range g.Blocks() {
		if indeg[b.ID] == 0 {
			queue = append(queue, b.ID)
		}
	}
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		topo = append(topo, b)
		for _, s := range g.Block(b).Succs {
			if isBackEdge[cfg.Edge{From: b, To: s}] {
				continue
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(topo) != n {
		return nil, fmt.Errorf("bl: %s: acyclic transform still has a cycle (irreducible?)", g.Name)
	}

	// numPathsFrom in reverse topological order over the transformed DAG.
	// In the transform, a back edge u->h is replaced by u->EXIT, and loop
	// headers h additionally receive a pseudo in-edge ENTRY->h (which does
	// not affect numPathsFrom).
	num := &Numbering{
		Graph:        g,
		EdgeVal:      make([][]uint64, n),
		IsBack:       make([][]bool, n),
		BackEdge:     make(map[cfg.Edge]BackEdgeInstr, len(backList)),
		numPathsFrom: make([]uint64, n),
		entryReset:   make([]uint64, n),
		pathCache:    make(map[uint64][]cfg.BlockID),
	}
	for i := range num.entryReset {
		num.entryReset[i] = math.MaxUint64
	}

	npf := num.numPathsFrom
	for i := len(topo) - 1; i >= 0; i-- {
		b := topo[i]
		blk := g.Block(b)
		if b == g.Exit {
			npf[b] = 1
		}
		var total uint64
		vals := make([]uint64, len(blk.Succs))
		backs := make([]bool, len(blk.Succs))
		for si, s := range blk.Succs {
			e := cfg.Edge{From: b, To: s}
			if isBackEdge[e] {
				// Transformed to b->EXIT: contributes one path
				// terminating here.
				backs[si] = true
				vals[si] = total // value of pseudo edge b->EXIT
				total++
			} else {
				vals[si] = total
				total += npf[s]
			}
			if total >= MaxPaths {
				return nil, fmt.Errorf("bl: %s: more than %d acyclic paths", g.Name, MaxPaths)
			}
		}
		if b == g.Exit {
			// exit has no successors; npf already 1.
		} else {
			npf[b] = total
		}
		num.EdgeVal[b] = vals
		num.IsBack[b] = backs
	}

	// Paths can start at ENTRY or at any loop header h (via pseudo edge
	// ENTRY->h). Assign the pseudo entry edges values after all real paths
	// from ENTRY: Val(ENTRY->h_k) = npf[ENTRY] + sum_{j<k} npf[h_j], in
	// deterministic (block ID) order.
	cursor := npf[g.Entry]
	for h := cfg.BlockID(0); int(h) < n; h++ {
		if backTargets[h] {
			num.entryReset[h] = cursor
			cursor += npf[h]
			if cursor >= MaxPaths {
				return nil, fmt.Errorf("bl: %s: more than %d acyclic paths", g.Name, MaxPaths)
			}
		}
	}
	num.NumPaths = cursor

	// Back-edge instrumentation: on u->h, emit r + Val(u->EXIT pseudo) and
	// reset r to Val(ENTRY->h).
	for _, e := range backList {
		blk := g.Block(e.From)
		var emitAdd uint64
		for si, s := range blk.Succs {
			if s == e.To && num.IsBack[e.From][si] {
				emitAdd = num.EdgeVal[e.From][si]
			}
		}
		num.BackEdge[e] = BackEdgeInstr{EmitAdd: emitAdd, Reset: num.entryReset[e.To]}
	}
	return num, nil
}

// EntryValue is the initial value of the path register on function entry.
func (n *Numbering) EntryValue() uint64 { return 0 }

// IsLoopHeader reports whether b is the target of a back edge.
func (n *Numbering) IsLoopHeader(b cfg.BlockID) bool {
	return n.entryReset[b] != math.MaxUint64
}

// HeaderReset returns Val(ENTRY->h) for loop header h.
func (n *Numbering) HeaderReset(h cfg.BlockID) uint64 { return n.entryReset[h] }

// Regenerate maps a path ID back to the sequence of basic blocks the path
// visits. The sequence starts at the function entry or at a loop header
// and ends at the exit or at the source of a back edge. Results are
// memoized; the returned slice must not be mutated. Safe for concurrent
// use.
func (n *Numbering) Regenerate(path uint64) ([]cfg.BlockID, error) {
	if path >= n.NumPaths {
		return nil, fmt.Errorf("bl: %s: path ID %d out of range [0,%d)", n.Graph.Name, path, n.NumPaths)
	}
	n.cacheMu.Lock()
	defer n.cacheMu.Unlock()
	if seq, ok := n.pathCache[path]; ok {
		return seq, nil
	}
	// Determine the start block: ENTRY for path < npf[ENTRY], otherwise
	// the loop header whose [entryReset, entryReset+npf) interval contains
	// the ID.
	start := n.Graph.Entry
	rem := path
	if path >= n.numPathsFrom[n.Graph.Entry] {
		found := false
		for h := cfg.BlockID(0); int(h) < n.Graph.NumBlocks(); h++ {
			r := n.entryReset[h]
			if r == math.MaxUint64 {
				continue
			}
			if path >= r && path < r+n.numPathsFrom[h] {
				start, rem, found = h, path-r, true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("bl: %s: path ID %d has no start block", n.Graph.Name, path)
		}
	}
	var seq []cfg.BlockID
	b := start
	for {
		seq = append(seq, b)
		if b == n.Graph.Exit {
			break
		}
		blk := n.Graph.Block(b)
		// Choose the successor edge with the greatest value <= rem. Edge
		// values per block are nondecreasing in successor order by
		// construction, so scan from the end.
		chosen := -1
		for si := len(blk.Succs) - 1; si >= 0; si-- {
			if n.EdgeVal[b][si] <= rem {
				chosen = si
				break
			}
		}
		if chosen < 0 {
			return nil, fmt.Errorf("bl: %s: regeneration stuck at block %d with remainder %d", n.Graph.Name, b, rem)
		}
		rem -= n.EdgeVal[b][chosen]
		if n.IsBack[b][chosen] {
			// Pseudo edge b->EXIT: the acyclic path ends at b.
			if rem != 0 {
				return nil, fmt.Errorf("bl: %s: nonzero remainder %d at back edge from %d", n.Graph.Name, rem, b)
			}
			break
		}
		b = blk.Succs[chosen]
	}
	n.pathCache[path] = seq
	return seq, nil
}

// PathWeight returns the total block weight (instruction count) along the
// path with the given ID.
func (n *Numbering) PathWeight(path uint64) (int, error) {
	seq, err := n.Regenerate(path)
	if err != nil {
		return 0, err
	}
	w := 0
	for _, b := range seq {
		w += n.Graph.Block(b).Weight
	}
	return w, nil
}
