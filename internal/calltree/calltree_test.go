package calltree

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// traced runs src under path tracing and returns everything the
// reconstruction needs plus oracles.
func traced(t *testing.T, src string, args ...int64) (*wlc.Program, *interp.Machine, *iwpp.WPP) {
	t.Helper()
	prog, err := wlc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var b iwpp.Builder
	m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) { b.Add(e) })})
	if err != nil {
		t.Fatal(err)
	}
	names := prog.FuncNames()
	b = iwpp.New(names, m.Numberings(), iwpp.BuildOptions{})
	if _, err := m.Run("main", args...); err != nil {
		t.Fatal(err)
	}
	return prog, m, b.Finish(m.Stats().Instructions).(*iwpp.WPP)
}

// expectedEdges computes caller->callee counts from a block trace — an
// oracle independent of the shift-reduce reconstruction.
func expectedEdges(t *testing.T, src string, args ...int64) (map[Edge]uint64, uint64) {
	t.Helper()
	prog, err := wlc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Edge]uint64{}
	m, err := interp.New(prog, interp.Config{Mode: interp.BlockTrace, Sink: trace.SinkFunc(func(e trace.Event) {
		f := prog.Funcs[e.Func()]
		for _, in := range f.Code[e.Path()] {
			if in.Op == wlc.OpCall {
				counts[Edge{Caller: int32(e.Func()), Callee: in.Fn}]++
			}
		}
	})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("main", args...); err != nil {
		t.Fatal(err)
	}
	return counts, m.Stats().Calls
}

func checkTree(t *testing.T, src string, args ...int64) *Tree {
	t.Helper()
	prog, m, w := traced(t, src, args...)
	tree, err := Build(prog, m.Numberings(), w, "main")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if got := activations(tree.Root); got != m.Stats().Calls {
		t.Fatalf("tree has %d activations, interpreter made %d calls", got, m.Stats().Calls)
	}
	wantEdges, _ := expectedEdges(t, src, args...)
	if len(tree.EdgeCounts) != len(wantEdges) {
		t.Fatalf("edge sets differ: got %v want %v", tree.EdgeCounts, wantEdges)
	}
	for e, n := range wantEdges {
		if tree.EdgeCounts[e] != n {
			t.Fatalf("edge %v: got %d, want %d", e, tree.EdgeCounts[e], n)
		}
	}
	return tree
}

func TestSimpleCalls(t *testing.T) {
	tree := checkTree(t, `
func leaf(x) { return x + 1; }
func mid(x) { return leaf(x) + leaf(x + 1); }
func main(n) { return mid(n) + leaf(n); }`, 5)
	if tree.Root.Name != "main" {
		t.Fatalf("root is %s", tree.Root.Name)
	}
	// main -> mid, leaf; mid -> leaf x2.
	if len(tree.Root.Children) != 2 {
		t.Fatalf("main has %d children, want 2", len(tree.Root.Children))
	}
	if tree.Root.Children[0].Name != "mid" || tree.Root.Children[1].Name != "leaf" {
		t.Fatalf("children order wrong: %s, %s", tree.Root.Children[0].Name, tree.Root.Children[1].Name)
	}
	if depth(tree.Root) != 3 {
		t.Fatalf("depth %d, want 3", depth(tree.Root))
	}
}

func TestCallsInsideLoops(t *testing.T) {
	checkTree(t, `
func inc(x) { return x + 1; }
func main(n) {
    var s = 0;
    var i = 0;
    while i < n {
        s = s + inc(i);
        if i % 3 == 0 { s = s + inc(s); }
        i = inc(i);
    }
    return s;
}`, 20)
}

func TestRecursion(t *testing.T) {
	tree := checkTree(t, `
func fact(n) {
    if n <= 1 { return 1; }
    return n * fact(n - 1);
}
func main(n) { return fact(n); }`, 8)
	// Chain main -> fact x8: depth 9.
	if d := depth(tree.Root); d != 9 {
		t.Fatalf("depth %d, want 9", d)
	}
}

func TestMutualRecursion(t *testing.T) {
	checkTree(t, `
func isEven(n) {
    if n == 0 { return 1; }
    return isOdd(n - 1);
}
func isOdd(n) {
    if n == 0 { return 0; }
    return isEven(n - 1);
}
func main(n) { return isEven(n) + isOdd(n); }`, 12)
}

func TestNestedCallArguments(t *testing.T) {
	checkTree(t, `
func a(x) { return x * 2; }
func b(x, y) { return x + y; }
func main(n) { return b(a(a(n)), a(b(n, 1))); }`, 4)
}

func TestWorkloadCallTrees(t *testing.T) {
	for _, name := range []string{"queens", "sort", "hash", "expr"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			checkTree(t, w.Source, w.Small)
		})
	}
}

func TestBuildRejectsUnknownEntry(t *testing.T) {
	prog, m, w := traced(t, "func main() { return 1; }")
	if _, err := Build(prog, m.Numberings(), w, "nope"); err == nil {
		t.Fatal("unknown entry accepted")
	}
}

func TestBuildRejectsCorruptTrace(t *testing.T) {
	prog, m, _ := traced(t, `
func f(x) { return x; }
func main() { return f(1); }`)
	// A fabricated trace that ends with an incomplete activation.
	bad := fakeWalker{events: []trace.Event{trace.MakeEvent(uint32(prog.ByName["main"].ID), 0)}}
	if _, err := Build(prog, m.Numberings(), bad, "main"); err == nil {
		t.Fatal("corrupt trace accepted")
	}
}

type fakeWalker struct{ events []trace.Event }

func (f fakeWalker) Walk(yield func(trace.Event) bool) {
	for _, e := range f.events {
		if !yield(e) {
			return
		}
	}
}

// activations returns the number of activations in n's subtree,
// including n itself.
func activations(n *Node) uint64 {
	total := uint64(1)
	for _, c := range n.Children {
		total += activations(c)
	}
	return total
}

// depth returns the height of n's subtree (a leaf has depth 1).
func depth(n *Node) int {
	d := 0
	for _, c := range n.Children {
		d = max(d, depth(c))
	}
	return d + 1
}
