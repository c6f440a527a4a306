// Package calltree reconstructs the dynamic call tree of an execution
// from its whole program path — nothing but the compressed acyclic-path
// trace plus the static program.
//
// The WPP contains no explicit call or return events, yet it determines
// the call structure completely: each acyclic path regenerates to a
// basic-block sequence; the call instructions in those blocks name their
// callees in order; and a callee's own path events appear in the trace
// *before* the caller event whose path contains the call (paths are
// emitted at back edges and exits, after the calls inside them ran). The
// reconstruction is therefore a shift-reduce parse:
//
//   - a path event that starts at the function entry opens an activation,
//     one that ends at a back edge continues it, one that reaches the
//     exit completes it;
//   - when a segment containing k call sites is consumed, the k most
//     recently completed activations are its children (validated against
//     the callees the IR names).
//
// This both demonstrates the paper's claim that a WPP is a *complete*
// control-flow record and serves as a deep cross-check of the whole
// pipeline: a single misattributed path ID derails the parse.
package calltree

import (
	"fmt"

	"repro/internal/bl"
	"repro/internal/trace"
	"repro/internal/wlc"
)

// Node is one activation (function invocation) in the dynamic call tree.
type Node struct {
	Func     int32
	Name     string
	Children []*Node
	// Segments is the number of acyclic-path events the activation
	// contributed (>= 1).
	Segments int
}

// Edge is a static caller->callee pair.
type Edge struct {
	Caller, Callee int32
}

// Tree is the reconstructed dynamic call tree.
type Tree struct {
	Root *Node
	// EdgeCounts is the dynamic call count per caller->callee pair.
	EdgeCounts map[Edge]uint64
}

// Walker yields the trace's events in order; every in-memory artifact
// (wpp.Artifact: *wpp.WPP or *wpp.ChunkedWPP) satisfies it.
type Walker interface {
	Walk(func(trace.Event) bool)
}

// partial is an in-progress activation.
type partial struct {
	node *Node
}

// Build reconstructs the call tree of a traced execution of prog. nums
// must be the Ball–Larus numberings used during tracing (indexed by
// function ID), and the trace must come from a completed run whose entry
// function is `entry`.
func Build(prog *wlc.Program, nums []*bl.Numbering, w Walker, entry string) (*Tree, error) {
	root, ok := prog.ByName[entry]
	if !ok {
		return nil, fmt.Errorf("calltree: no function %s", entry)
	}
	// callSites[f][b] lists the callee IDs of block b of function f, in
	// execution order.
	callSites := make([][][]int32, len(prog.Funcs))
	for i, f := range prog.Funcs {
		sites := make([][]int32, f.Graph.NumBlocks())
		for b := range sites {
			for _, in := range f.Code[b] {
				if in.Op == wlc.OpCall {
					sites[b] = append(sites[b], in.Fn)
				}
			}
		}
		callSites[i] = sites
	}

	var completed []*Node
	var stack []*partial
	var parseErr error
	position := 0

	w.Walk(func(e trace.Event) bool {
		fn := int32(e.Func())
		num := nums[fn]
		blocks, err := num.Regenerate(e.Path())
		if err != nil {
			parseErr = fmt.Errorf("calltree: event %d (%v): %w", position, e, err)
			return false
		}
		g := num.Graph
		startsAtEntry := blocks[0] == g.Entry
		endsAtExit := blocks[len(blocks)-1] == g.Exit

		// Count the call sites this segment executed, in order.
		var callees []int32
		for _, b := range blocks {
			callees = append(callees, callSites[fn][b]...)
		}

		// The last len(callees) completed activations are this segment's
		// children, completed left to right.
		k := len(callees)
		if k > len(completed) {
			parseErr = fmt.Errorf("calltree: event %d (%v): segment needs %d completed callees, have %d", position, e, k, len(completed))
			return false
		}
		children := completed[len(completed)-k:]
		completed = completed[:len(completed)-k]
		for i, c := range children {
			if c.Func != callees[i] {
				parseErr = fmt.Errorf("calltree: event %d (%v): call site %d expects %s, trace has %s",
					position, e, i, prog.Funcs[callees[i]].Name, c.Name)
				return false
			}
		}

		var act *partial
		if startsAtEntry {
			act = &partial{node: &Node{Func: fn, Name: prog.Funcs[fn].Name}}
			stack = append(stack, act)
		} else {
			if len(stack) == 0 || stack[len(stack)-1].node.Func != fn {
				parseErr = fmt.Errorf("calltree: event %d (%v): continuation without open activation", position, e)
				return false
			}
			act = stack[len(stack)-1]
		}
		act.node.Children = append(act.node.Children, children...)
		act.node.Segments++

		if endsAtExit {
			stack = stack[:len(stack)-1]
			completed = append(completed, act.node)
		}
		position++
		return true
	})
	if parseErr != nil {
		return nil, parseErr
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("calltree: %d activations never completed (truncated trace?)", len(stack))
	}
	if len(completed) != 1 {
		return nil, fmt.Errorf("calltree: expected a single root, found %d completed activations", len(completed))
	}
	rootNode := completed[0]
	if rootNode.Func != root.ID {
		return nil, fmt.Errorf("calltree: root is %s, expected %s", rootNode.Name, entry)
	}

	tree := &Tree{Root: rootNode, EdgeCounts: map[Edge]uint64{}}
	var visit func(n *Node)
	visit = func(n *Node) {
		for _, c := range n.Children {
			tree.EdgeCounts[Edge{Caller: n.Func, Callee: c.Func}]++
			visit(c)
		}
	}
	visit(rootNode)
	return tree, nil
}
