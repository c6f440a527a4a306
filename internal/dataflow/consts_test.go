package dataflow

import (
	"testing"

	"repro/internal/wlc"
	"repro/internal/workloads"
)

// compileFunc compiles src (no AST folding — the raw branches are the
// point) and returns the named function.
func compileFunc(t *testing.T, src, name string) *wlc.Func {
	t.Helper()
	p, err := wlc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no function %q", name)
	return nil
}

// infeasibleEdges counts statically infeasible out-edges of reachable
// branch blocks.
func infeasibleEdges(f *wlc.Func, facts *ConstFacts) int {
	n := 0
	for _, blk := range f.Graph.Blocks() {
		if !facts.Reachable(blk.ID) || f.Terms[blk.ID].Kind != wlc.TermBranch {
			continue
		}
		for _, ok := range facts.EdgeFeasible[blk.ID] {
			if !ok {
				n++
			}
		}
	}
	return n
}

// unreachableBlocks counts blocks the facts prove unreachable.
func unreachableBlocks(f *wlc.Func, facts *ConstFacts) int {
	n := 0
	for _, blk := range f.Graph.Blocks() {
		if !facts.Reachable(blk.ID) {
			n++
		}
	}
	return n
}

func TestConstsConstantCondition(t *testing.T) {
	f := compileFunc(t, `
func main(n) {
    var x = 1;
    if x { return 1; }
    return 2;
}`, "main")
	facts, err := Consts(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := infeasibleEdges(f, facts); got != 1 {
		t.Errorf("infeasible edges = %d, want 1 (the false side of `if 1`)", got)
	}
	if got := unreachableBlocks(f, facts); got == 0 {
		t.Error("the `return 2` block should be unreachable")
	}
}

func TestConstsCorrelatedComparisons(t *testing.T) {
	// n > 5 refines n to [6, max]; n < 3 is then the constant 0, so the
	// inner true edge is infeasible and its block unreachable.
	f := compileFunc(t, `
func main(n) {
    if n > 5 {
        if n < 3 { return 9; }
        return 1;
    }
    return 0;
}`, "main")
	facts, err := Consts(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := infeasibleEdges(f, facts); got != 1 {
		t.Errorf("infeasible edges = %d, want 1 (the `n < 3` true side)", got)
	}
	if got := unreachableBlocks(f, facts); got == 0 {
		t.Error("the `return 9` block should be unreachable")
	}
}

func TestConstsUncorrelatedStaysFeasible(t *testing.T) {
	// Both branch outcomes are possible for an unknown parameter; nothing
	// may be pruned.
	f := compileFunc(t, `
func main(n) {
    if n > 5 { return 1; }
    return 0;
}`, "main")
	facts, err := Consts(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := infeasibleEdges(f, facts); got != 0 {
		t.Errorf("infeasible edges = %d, want 0", got)
	}
	if got := unreachableBlocks(f, facts); got != 0 {
		t.Errorf("unreachable blocks = %d, want 0", got)
	}
}

func TestConstsLoopWidens(t *testing.T) {
	// The loop counter grows each iteration; widening must still reach a
	// fixpoint, and the loop's exit block must stay reachable.
	f := compileFunc(t, `
func main(n) {
    var i = 0;
    var acc = 0;
    while i < n {
        acc = acc + i;
        i = i + 1;
    }
    return acc;
}`, "main")
	facts, err := Consts(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := unreachableBlocks(f, facts); got != 0 {
		t.Errorf("unreachable blocks = %d, want 0", got)
	}
	if !facts.Reachable(f.Graph.Exit) {
		t.Error("exit unreachable after widening")
	}
}

// TestConstsConvergeOnWorkloads is the broad smoke test: the fixpoint
// must terminate within the convergence guard on every function of every
// bundled workload, and the facts must keep the exits of these
// terminating programs reachable.
func TestConstsConvergeOnWorkloads(t *testing.T) {
	for _, w := range workloads.All {
		p, err := wlc.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, f := range p.Funcs {
			facts, err := Consts(f)
			if err != nil {
				t.Errorf("%s/%s: consts: %v", w.Name, f.Name, err)
				continue
			}
			if !facts.Reachable(f.Graph.Exit) {
				t.Errorf("%s/%s: exit proved unreachable (unsound)", w.Name, f.Name)
			}
		}
	}
}
