package dataflow

import (
	"strings"
	"testing"

	"repro/internal/cfg"
)

// buildGraph freezes a graph from an edge list.
func buildGraph(t *testing.T, n int, entry, exit cfg.BlockID, edges [][2]cfg.BlockID) *cfg.Graph {
	t.Helper()
	g := cfg.New("t")
	for i := 0; i < n; i++ {
		g.NewBlock("b")
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g.SetEntry(entry)
	g.SetExit(exit)
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSolveForwardReachability runs the simplest forward problem — a
// boolean "reached" fact — over a diamond with one edge statically
// severed by EdgeTransfer, and checks the pruned arm stays bottom.
func TestSolveForwardReachability(t *testing.T) {
	g := buildGraph(t, 4, 0, 3, [][2]cfg.BlockID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	res, err := Solve(g, Problem[bool]{
		Bottom:   func() bool { return false },
		Boundary: func() bool { return true },
		IsBottom: func(b bool) bool { return !b },
		Join:     func(dst, src bool) (bool, bool) { return dst || src, src && !dst },
		Transfer: func(b cfg.BlockID, in bool) bool { return in },
		EdgeTransfer: func(from cfg.BlockID, si int, out bool) (bool, bool) {
			if from == 0 && si == 1 { // sever 0 -> 2
				return false, false
			}
			return out, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, false, true}
	for b, w := range want {
		if res.In[b] != w {
			t.Errorf("reached[%d] = %v, want %v", b, res.In[b], w)
		}
	}
	if res.EdgeFeasible[0][1] || !res.EdgeFeasible[0][0] {
		t.Errorf("edge feasibility = %v, want [true false]", res.EdgeFeasible[0])
	}
	if !res.EdgeFeasible[1][0] {
		t.Error("surviving arm's out-edge marked infeasible")
	}
	if res.EdgeFeasible[2][0] {
		t.Error("severed arm's out-edge marked feasible")
	}
}

// TestSolveConvergenceGuard feeds the solver a non-converging problem
// (a strictly growing "lattice" with no top) and expects a loud error,
// not a spin.
func TestSolveConvergenceGuard(t *testing.T) {
	g := buildGraph(t, 4, 0, 3, [][2]cfg.BlockID{{0, 1}, {1, 2}, {1, 3}, {2, 1}})
	_, err := Solve(g, Problem[int]{
		Bottom:   func() int { return 0 },
		Boundary: func() int { return 1 },
		Join:     func(dst, src int) (int, bool) { return dst + src, src != 0 },
		Transfer: func(b cfg.BlockID, in int) int { return in + 1 },
	})
	if err == nil || !strings.Contains(err.Error(), "without converging") {
		t.Fatalf("non-converging problem returned %v, want convergence-guard error", err)
	}
}
