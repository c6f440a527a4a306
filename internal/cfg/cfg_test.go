package cfg

import (
	"strings"
	"testing"
)

// buildDiamond returns the classic if-then-else diamond:
//
//	0 -> 1, 2; 1 -> 3; 2 -> 3
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New("diamond")
	for i := 0; i < 4; i++ {
		g.NewBlock("b")
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 2, 3)
	g.SetEntry(0)
	g.SetExit(3)
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	return g
}

// buildLoop returns a simple while loop:
//
//	0(entry) -> 1(header); 1 -> 2(body), 3(exit); 2 -> 1
func buildLoop(t *testing.T) *Graph {
	t.Helper()
	g := New("loop")
	for i := 0; i < 4; i++ {
		g.NewBlock("b")
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 2, 1)
	g.SetEntry(0)
	g.SetExit(3)
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	return g
}

func mustEdge(t *testing.T, g *Graph, from, to BlockID) {
	t.Helper()
	if err := g.AddEdge(from, to); err != nil {
		t.Fatal(err)
	}
}

func TestFinishComputesPreds(t *testing.T) {
	g := buildDiamond(t)
	if got := g.Block(3).Preds; len(got) != 2 {
		t.Fatalf("block 3 preds = %v, want 2 entries", got)
	}
	if got := g.Block(0).Preds; len(got) != 0 {
		t.Fatalf("entry preds = %v, want none", got)
	}
}

func TestDuplicateEdgeRejected(t *testing.T) {
	g := New("dup")
	g.NewBlock("a")
	g.NewBlock("b")
	mustEdge(t, g, 0, 1)
	if err := g.AddEdge(0, 1); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestFinishRejectsUnreachable(t *testing.T) {
	g := New("unreach")
	g.NewBlock("entry")
	g.NewBlock("island")
	g.NewBlock("exit")
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 2)
	g.SetEntry(0)
	g.SetExit(2)
	if err := g.Finish(); err == nil {
		t.Fatal("unreachable block accepted")
	}
}

func TestFinishRejectsNoExitPath(t *testing.T) {
	g := New("noexit")
	g.NewBlock("entry")
	g.NewBlock("sink")
	g.NewBlock("exit")
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 1) // self-loop that never leaves
	g.SetEntry(0)
	g.SetExit(2)
	if err := g.Finish(); err == nil {
		t.Fatal("block that cannot reach exit accepted")
	}
}

func TestFinishRejectsExitWithSuccessors(t *testing.T) {
	g := New("exitsucc")
	g.NewBlock("entry")
	g.NewBlock("exit")
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 0)
	g.SetEntry(0)
	g.SetExit(1)
	if err := g.Finish(); err == nil {
		t.Fatal("exit with successors accepted")
	}
}

func TestFinishRejectsMissingEntryExit(t *testing.T) {
	g := New("bare")
	g.NewBlock("a")
	if err := g.Finish(); err == nil {
		t.Fatal("missing entry/exit accepted")
	}
}

func TestReversePostorderDiamond(t *testing.T) {
	g := buildDiamond(t)
	rpo := g.ReversePostorder()
	if len(rpo) != 4 {
		t.Fatalf("rpo has %d blocks, want 4", len(rpo))
	}
	pos := make(map[BlockID]int)
	for i, b := range rpo {
		pos[b] = i
	}
	if pos[0] != 0 {
		t.Fatalf("entry not first in rpo: %v", rpo)
	}
	if pos[3] != 3 {
		t.Fatalf("exit not last in rpo of a DAG: %v", rpo)
	}
	if pos[1] > pos[3] || pos[2] > pos[3] {
		t.Fatalf("rpo violates topological order: %v", rpo)
	}
}

func TestDominatorsDiamond(t *testing.T) {
	g := buildDiamond(t)
	idom := g.Dominators()
	want := []BlockID{0, 0, 0, 0}
	for b, w := range want {
		if idom[b] != w {
			t.Fatalf("idom[%d] = %d, want %d (full: %v)", b, idom[b], w, idom)
		}
	}
	if !Dominates(idom, 0, 3) {
		t.Fatal("entry must dominate exit")
	}
	if Dominates(idom, 1, 3) {
		t.Fatal("side of diamond must not dominate join")
	}
}

func TestDominatorsLoop(t *testing.T) {
	g := buildLoop(t)
	idom := g.Dominators()
	if idom[1] != 0 || idom[2] != 1 || idom[3] != 1 {
		t.Fatalf("unexpected idoms %v", idom)
	}
}

func TestBackEdgesLoop(t *testing.T) {
	g := buildLoop(t)
	back, err := g.BackEdges()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != (Edge{2, 1}) {
		t.Fatalf("back edges = %v, want [2->1]", back)
	}
}

func TestBackEdgesSelfLoop(t *testing.T) {
	g := New("self")
	g.NewBlock("entry")
	g.NewBlock("loop")
	g.NewBlock("exit")
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 1)
	mustEdge(t, g, 1, 2)
	g.SetEntry(0)
	g.SetExit(2)
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	back, err := g.BackEdges()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != (Edge{1, 1}) {
		t.Fatalf("back edges = %v, want [1->1]", back)
	}
}

func TestBackEdgesNestedLoops(t *testing.T) {
	// 0 -> 1; 1 -> 2; 2 -> 3; 3 -> 2 (inner), 3 -> 1? make reducible:
	// outer: 1 header, latch 4; inner: 2 header, latch 3.
	g := New("nested")
	for i := 0; i < 6; i++ {
		g.NewBlock("b")
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 3)
	mustEdge(t, g, 3, 2) // inner back edge
	mustEdge(t, g, 3, 4)
	mustEdge(t, g, 4, 1) // outer back edge
	mustEdge(t, g, 4, 5)
	g.SetEntry(0)
	g.SetExit(5)
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	back, err := g.BackEdges()
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("back edges = %v, want 2", back)
	}
	want := map[Edge]bool{{3, 2}: true, {4, 1}: true}
	for _, e := range back {
		if !want[e] {
			t.Fatalf("unexpected back edge %v", e)
		}
	}
}

func TestIrreducibleDetected(t *testing.T) {
	// Classic irreducible: two blocks jumping into each other's "loop"
	// with two distinct entries.
	g := New("irr")
	for i := 0; i < 5; i++ {
		g.NewBlock("b")
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 1)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 2, 4)
	mustEdge(t, g, 4, 3)
	g.SetEntry(0)
	g.SetExit(3)
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.BackEdges(); err == nil {
		t.Fatal("irreducible graph not detected")
	}
}

func TestEdgeAndDotRendering(t *testing.T) {
	g := buildDiamond(t)
	if s := (Edge{0, 1}).String(); s != "0->1" {
		t.Fatalf("Edge.String = %q", s)
	}
	dot := g.Dot()
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "n0 -> n1") {
		t.Fatalf("unexpected dot output:\n%s", dot)
	}
}
