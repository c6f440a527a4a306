// Package cfg provides the control-flow-graph data model used throughout
// the whole-program-path pipeline.
//
// A Graph is a per-function directed graph of basic blocks with a single
// entry and a single exit. The package supplies the structural analyses the
// Ball–Larus numbering needs: depth-first orderings, dominators, back-edge
// detection, and a reducibility check. Graphs are built imperatively with
// NewBlock/AddEdge and then frozen by Finish, which computes predecessor
// lists and validates basic well-formedness.
package cfg

import (
	"fmt"
	"sort"
	"strings"
)

// BlockID identifies a basic block within one Graph. IDs are dense,
// starting at 0, in creation order.
type BlockID int32

// None is the invalid block ID.
const None BlockID = -1

// Edge is a directed edge between two blocks of the same Graph.
type Edge struct {
	From, To BlockID
}

func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.From, e.To) }

// Block is a basic block. Weight models the cost of executing the block
// once (for the WPP pipeline it is the number of IR instructions).
type Block struct {
	ID     BlockID
	Name   string
	Weight int
	Succs  []BlockID
	Preds  []BlockID
}

// Graph is a single-entry single-exit control-flow graph for one function.
type Graph struct {
	Name   string
	Entry  BlockID
	Exit   BlockID
	blocks []*Block
	frozen bool
}

// New returns an empty graph. Entry and Exit are unset (None) until
// SetEntry/SetExit are called.
func New(name string) *Graph {
	return &Graph{Name: name, Entry: None, Exit: None}
}

// NewBlock appends a block with the given name and returns it.
func (g *Graph) NewBlock(name string) *Block {
	if g.frozen {
		panic("cfg: NewBlock on frozen graph")
	}
	b := &Block{ID: BlockID(len(g.blocks)), Name: name}
	g.blocks = append(g.blocks, b)
	return b
}

// NumBlocks reports the number of blocks in the graph.
func (g *Graph) NumBlocks() int { return len(g.blocks) }

// Block returns the block with the given ID.
func (g *Graph) Block(id BlockID) *Block { return g.blocks[id] }

// Blocks returns the blocks in ID order. The slice is shared; callers must
// not mutate it.
func (g *Graph) Blocks() []*Block { return g.blocks }

// SetEntry marks the entry block.
func (g *Graph) SetEntry(id BlockID) { g.Entry = id }

// SetExit marks the exit block.
func (g *Graph) SetExit(id BlockID) { g.Exit = id }

// AddEdge appends a successor edge from -> to. Duplicate edges are
// rejected: the Ball–Larus numbering identifies runtime transitions by
// (from, to) pairs, so parallel edges would be ambiguous.
func (g *Graph) AddEdge(from, to BlockID) error {
	if g.frozen {
		panic("cfg: AddEdge on frozen graph")
	}
	fb := g.blocks[from]
	for _, s := range fb.Succs {
		if s == to {
			return fmt.Errorf("cfg: duplicate edge %d->%d in %s", from, to, g.Name)
		}
	}
	fb.Succs = append(fb.Succs, to)
	return nil
}

// Finish freezes the graph: computes predecessor lists and validates that
// the graph has an entry and exit, that the entry has no predecessors
// within the graph, and that every block is reachable from the entry and
// reaches the exit. It is an error to modify the graph afterwards.
func (g *Graph) Finish() error {
	if g.Entry == None || g.Exit == None {
		return fmt.Errorf("cfg: %s: entry/exit not set", g.Name)
	}
	for _, b := range g.blocks {
		b.Preds = b.Preds[:0]
	}
	for _, b := range g.blocks {
		for _, s := range b.Succs {
			if int(s) < 0 || int(s) >= len(g.blocks) {
				return fmt.Errorf("cfg: %s: edge %d->%d out of range", g.Name, b.ID, s)
			}
			g.blocks[s].Preds = append(g.blocks[s].Preds, b.ID)
		}
	}
	if len(g.blocks[g.Exit].Succs) != 0 {
		return fmt.Errorf("cfg: %s: exit block %d has successors", g.Name, g.Exit)
	}
	// Reachability from entry.
	seen := make([]bool, len(g.blocks))
	var stack []BlockID
	stack = append(stack, g.Entry)
	seen[g.Entry] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.blocks[b].Succs {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	for _, b := range g.blocks {
		if !seen[b.ID] {
			return fmt.Errorf("cfg: %s: block %d (%s) unreachable from entry", g.Name, b.ID, b.Name)
		}
	}
	// Co-reachability: every block reaches exit.
	coseen := make([]bool, len(g.blocks))
	stack = stack[:0]
	stack = append(stack, g.Exit)
	coseen[g.Exit] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.blocks[b].Preds {
			if !coseen[p] {
				coseen[p] = true
				stack = append(stack, p)
			}
		}
	}
	for _, b := range g.blocks {
		if !coseen[b.ID] {
			return fmt.Errorf("cfg: %s: block %d (%s) does not reach exit", g.Name, b.ID, b.Name)
		}
	}
	g.frozen = true
	return nil
}

// ReversePostorder returns the blocks in reverse postorder of a
// depth-first traversal from the entry. Successors are visited in their
// stored order, so the result is deterministic.
func (g *Graph) ReversePostorder() []BlockID {
	order := make([]BlockID, 0, len(g.blocks))
	state := make([]int8, len(g.blocks)) // 0 unvisited, 1 on stack, 2 done
	type frame struct {
		b  BlockID
		si int
	}
	var stack []frame
	stack = append(stack, frame{g.Entry, 0})
	state[g.Entry] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := g.blocks[f.b].Succs
		if f.si < len(succs) {
			s := succs[f.si]
			f.si++
			if state[s] == 0 {
				state[s] = 1
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		state[f.b] = 2
		order = append(order, f.b)
		stack = stack[:len(stack)-1]
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// Dominators computes the immediate-dominator tree using the iterative
// algorithm of Cooper, Harvey and Kennedy. The result maps each block to
// its immediate dominator; the entry maps to itself.
func (g *Graph) Dominators() []BlockID {
	rpo := g.ReversePostorder()
	rpoIndex := make([]int, len(g.blocks))
	for i, b := range rpo {
		rpoIndex[b] = i
	}
	idom := make([]BlockID, len(g.blocks))
	for i := range idom {
		idom[i] = None
	}
	idom[g.Entry] = g.Entry

	intersect := func(a, b BlockID) BlockID {
		for a != b {
			for rpoIndex[a] > rpoIndex[b] {
				a = idom[a]
			}
			for rpoIndex[b] > rpoIndex[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == g.Entry {
				continue
			}
			var newIdom BlockID = None
			for _, p := range g.blocks[b].Preds {
				if idom[p] == None {
					continue
				}
				if newIdom == None {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != None && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b under the given idom tree.
func Dominates(idom []BlockID, a, b BlockID) bool {
	for {
		if a == b {
			return true
		}
		next := idom[b]
		if next == b || next == None {
			return false
		}
		b = next
	}
}

// BackEdges returns the back edges of the graph: edges u->h where h
// dominates u. If the graph contains a retreating edge that is not a back
// edge, the graph is irreducible and an error is returned naming the
// offending edge.
func (g *Graph) BackEdges() ([]Edge, error) {
	idom := g.Dominators()
	// Retreating edges: target is an ancestor on the DFS stack.
	var back []Edge
	state := make([]int8, len(g.blocks))
	type frame struct {
		b  BlockID
		si int
	}
	var stack []frame
	stack = append(stack, frame{g.Entry, 0})
	state[g.Entry] = 1
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		succs := g.blocks[f.b].Succs
		if f.si < len(succs) {
			s := succs[f.si]
			f.si++
			switch state[s] {
			case 0:
				state[s] = 1
				stack = append(stack, frame{s, 0})
			case 1: // retreating
				if !Dominates(idom, s, f.b) {
					return nil, fmt.Errorf("cfg: %s: irreducible: retreating edge %d->%d whose target does not dominate its source", g.Name, f.b, s)
				}
				back = append(back, Edge{f.b, s})
			}
			continue
		}
		state[f.b] = 2
		stack = stack[:len(stack)-1]
	}
	sort.Slice(back, func(i, j int) bool {
		if back[i].From != back[j].From {
			return back[i].From < back[j].From
		}
		return back[i].To < back[j].To
	})
	return back, nil
}

// Dot renders the graph in Graphviz DOT syntax, for debugging.
func (g *Graph) Dot() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", g.Name)
	for _, b := range g.blocks {
		shape := "box"
		if b.ID == g.Entry || b.ID == g.Exit {
			shape = "ellipse"
		}
		fmt.Fprintf(&sb, "  n%d [label=%q shape=%s];\n", b.ID, fmt.Sprintf("%d:%s w=%d", b.ID, b.Name, b.Weight), shape)
	}
	for _, b := range g.blocks {
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, "  n%d -> n%d;\n", b.ID, s)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
