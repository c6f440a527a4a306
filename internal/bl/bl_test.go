package bl

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cfg"
)

func mustGraph(t *testing.T, g *cfg.Graph) *cfg.Graph {
	t.Helper()
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	return g
}

func mustEdge(t *testing.T, g *cfg.Graph, from, to cfg.BlockID) {
	t.Helper()
	if err := g.AddEdge(from, to); err != nil {
		t.Fatal(err)
	}
}

// diamond: 0 -> {1,2} -> 3. Four blocks, two paths.
func diamond(t *testing.T) *cfg.Graph {
	g := cfg.New("diamond")
	for i := 0; i < 4; i++ {
		b := g.NewBlock("b")
		b.Weight = i + 1
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 2, 3)
	g.SetEntry(0)
	g.SetExit(3)
	return mustGraph(t, g)
}

// doubleDiamond: two diamonds in sequence, four paths.
func doubleDiamond(t *testing.T) *cfg.Graph {
	g := cfg.New("dd")
	for i := 0; i < 7; i++ {
		g.NewBlock("b")
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 0, 2)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 2, 3)
	mustEdge(t, g, 3, 4)
	mustEdge(t, g, 3, 5)
	mustEdge(t, g, 4, 6)
	mustEdge(t, g, 5, 6)
	g.SetEntry(0)
	g.SetExit(6)
	return mustGraph(t, g)
}

// loop: 0 -> 1; 1 -> {2,3}; 2 -> 1. Entry 0, exit 3, back edge 2->1.
func loop(t *testing.T) *cfg.Graph {
	g := cfg.New("loop")
	for i := 0; i < 4; i++ {
		g.NewBlock("b")
	}
	mustEdge(t, g, 0, 1)
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 2, 1)
	g.SetEntry(0)
	g.SetExit(3)
	return mustGraph(t, g)
}

func TestDiamondNumPaths(t *testing.T) {
	n, err := Number(diamond(t))
	if err != nil {
		t.Fatal(err)
	}
	if n.NumPaths != 2 {
		t.Fatalf("NumPaths = %d, want 2", n.NumPaths)
	}
}

func TestDoubleDiamondNumPaths(t *testing.T) {
	n, err := Number(doubleDiamond(t))
	if err != nil {
		t.Fatal(err)
	}
	if n.NumPaths != 4 {
		t.Fatalf("NumPaths = %d, want 4", n.NumPaths)
	}
}

func TestDiamondPathsAreDistinctAndComplete(t *testing.T) {
	n, err := Number(diamond(t))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]uint64{}
	for id := uint64(0); id < n.NumPaths; id++ {
		seq, err := n.Regenerate(id)
		if err != nil {
			t.Fatalf("path %d: %v", id, err)
		}
		key := ""
		for _, b := range seq {
			key += string(rune('A' + b))
		}
		if prev, dup := seen[key]; dup {
			t.Fatalf("paths %d and %d regenerate to the same block sequence %q", prev, id, key)
		}
		seen[key] = id
		if seq[0] != 0 || seq[len(seq)-1] != 3 {
			t.Fatalf("path %d = %v does not run entry to exit", id, seq)
		}
	}
}

func TestLoopNumbering(t *testing.T) {
	n, err := Number(loop(t))
	if err != nil {
		t.Fatal(err)
	}
	// Acyclic paths: from ENTRY: 0-1-2(backedge), 0-1-3; from header 1:
	// 1-2(backedge), 1-3. Total 4.
	if n.NumPaths != 4 {
		t.Fatalf("NumPaths = %d, want 4", n.NumPaths)
	}
	if !n.IsLoopHeader(1) {
		t.Fatal("block 1 should be a loop header")
	}
	if n.IsLoopHeader(0) || n.IsLoopHeader(2) {
		t.Fatal("non-headers misclassified")
	}
	instr, ok := n.BackEdge[cfg.Edge{From: 2, To: 1}]
	if !ok {
		t.Fatal("no instrumentation for back edge 2->1")
	}
	if instr.Reset != n.HeaderReset(1) {
		t.Fatalf("reset %d != header reset %d", instr.Reset, n.HeaderReset(1))
	}
}

func TestPathWeightAndString(t *testing.T) {
	n, err := Number(diamond(t))
	if err != nil {
		t.Fatal(err)
	}
	// Weights are 1,2,3,4; both paths include blocks 0 and 3 (1+4) plus
	// either 2 or 3.
	w0, err := n.PathWeight(0)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := n.PathWeight(1)
	if err != nil {
		t.Fatal(err)
	}
	if !(w0 == 7 && w1 == 8 || w0 == 8 && w1 == 7) {
		t.Fatalf("path weights = %d,%d; want {7,8}", w0, w1)
	}
}

func TestRegenerateRejectsOutOfRange(t *testing.T) {
	n, err := Number(diamond(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Regenerate(n.NumPaths); err == nil {
		t.Fatal("out-of-range path accepted")
	}
}

func TestIrreducibleRejected(t *testing.T) {
	g := cfg.New("irr")
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
	mustGraph(t, g)
	if _, err := Number(g); err == nil {
		t.Fatal("irreducible graph accepted")
	}
}

// simulate walks the graph from entry taking random successors, applying
// the Ball-Larus instrumentation exactly as an instrumented binary would,
// and returns both the emitted path IDs and the acyclic block segments
// actually walked.
func simulate(t *testing.T, n *Numbering, rng *rand.Rand, maxSteps int) (ids []uint64, segs [][]cfg.BlockID) {
	g := n.Graph
	r := n.EntryValue()
	cur := g.Entry
	seg := []cfg.BlockID{cur}
	for steps := 0; cur != g.Exit; steps++ {
		if steps > maxSteps {
			t.Fatalf("simulation did not terminate in %d steps", maxSteps)
		}
		blk := g.Block(cur)
		si := rng.Intn(len(blk.Succs))
		next := blk.Succs[si]
		if n.IsBack[cur][si] {
			instr := n.BackEdge[cfg.Edge{From: cur, To: next}]
			ids = append(ids, r+instr.EmitAdd)
			segs = append(segs, seg)
			r = instr.Reset
			seg = []cfg.BlockID{next}
		} else {
			r += n.EdgeVal[cur][si]
			seg = append(seg, next)
		}
		cur = next
	}
	ids = append(ids, r)
	segs = append(segs, seg)
	return ids, segs
}

func TestSimulatedExecutionRegeneratesExactly(t *testing.T) {
	graphs := []*cfg.Graph{diamond(t), doubleDiamond(t), loop(t)}
	rng := rand.New(rand.NewSource(11))
	for _, g := range graphs {
		n, err := Number(g)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for trial := 0; trial < 50; trial++ {
			ids, segs := simulate(t, n, rng, 10000)
			if len(ids) != len(segs) {
				t.Fatalf("%s: %d ids but %d segments", g.Name, len(ids), len(segs))
			}
			for i, id := range ids {
				got, err := n.Regenerate(id)
				if err != nil {
					t.Fatalf("%s: emitted id %d invalid: %v", g.Name, id, err)
				}
				if !reflect.DeepEqual(got, segs[i]) {
					t.Fatalf("%s: id %d regenerates to %v, executed %v", g.Name, id, got, segs[i])
				}
			}
		}
	}
}

// randomStructured builds a random reducible CFG by composing sequence,
// if-then-else, if-then, and while constructs, mimicking what a compiler
// front end emits.
func randomStructured(t *testing.T, rng *rand.Rand, budget int) *cfg.Graph {
	g := cfg.New("rand")
	entry := g.NewBlock("entry")
	exit := g.NewBlock("exit")

	// grow recursively builds a region from `from` and returns the block
	// that control reaches at the region's end.
	var grow func(from cfg.BlockID, depth int) cfg.BlockID
	grow = func(from cfg.BlockID, depth int) cfg.BlockID {
		if budget <= 0 || depth > 5 {
			return from
		}
		budget--
		switch rng.Intn(4) {
		case 0: // straight-line block
			b := g.NewBlock("s")
			mustEdge(t, g, from, b.ID)
			return grow(b.ID, depth)
		case 1: // if-then-else
			then := g.NewBlock("t")
			els := g.NewBlock("e")
			join := g.NewBlock("j")
			mustEdge(t, g, from, then.ID)
			mustEdge(t, g, from, els.ID)
			tEnd := grow(then.ID, depth+1)
			eEnd := grow(els.ID, depth+1)
			mustEdge(t, g, tEnd, join.ID)
			mustEdge(t, g, eEnd, join.ID)
			return grow(join.ID, depth)
		case 2: // if-then
			then := g.NewBlock("t")
			join := g.NewBlock("j")
			mustEdge(t, g, from, then.ID)
			tEnd := grow(then.ID, depth+1)
			mustEdge(t, g, tEnd, join.ID)
			mustEdge(t, g, from, join.ID)
			return grow(join.ID, depth)
		default: // while loop
			head := g.NewBlock("h")
			body := g.NewBlock("w")
			after := g.NewBlock("a")
			mustEdge(t, g, from, head.ID)
			mustEdge(t, g, head.ID, body.ID)
			mustEdge(t, g, head.ID, after.ID)
			bEnd := grow(body.ID, depth+1)
			mustEdge(t, g, bEnd, head.ID)
			return grow(after.ID, depth)
		}
	}
	end := grow(entry.ID, 0)
	mustEdge(t, g, end, exit.ID)
	g.SetEntry(entry.ID)
	g.SetExit(exit.ID)
	return mustGraph(t, g)
}

func TestRandomStructuredGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 60; trial++ {
		g := randomStructured(t, rng, 3+rng.Intn(20))
		n, err := Number(g)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, g.Dot())
		}
		for run := 0; run < 10; run++ {
			ids, segs := simulate(t, n, rng, 100000)
			for i, id := range ids {
				got, err := n.Regenerate(id)
				if err != nil {
					t.Fatalf("trial %d: id %d: %v", trial, id, err)
				}
				if !reflect.DeepEqual(got, segs[i]) {
					t.Fatalf("trial %d: id %d -> %v, executed %v", trial, id, got, segs[i])
				}
			}
		}
	}
}

func TestPathExplosionRejected(t *testing.T) {
	// A chain of 45 diamonds has 2^45 acyclic paths, exceeding MaxPaths
	// (2^40); Number must reject it rather than overflow the event
	// encoding.
	g := cfg.New("explode")
	prev := g.NewBlock("entry").ID
	g.SetEntry(prev)
	for i := 0; i < 45; i++ {
		a := g.NewBlock("a")
		b := g.NewBlock("b")
		join := g.NewBlock("j")
		mustEdge(t, g, prev, a.ID)
		mustEdge(t, g, prev, b.ID)
		mustEdge(t, g, a.ID, join.ID)
		mustEdge(t, g, b.ID, join.ID)
		prev = join.ID
	}
	exit := g.NewBlock("exit")
	mustEdge(t, g, prev, exit.ID)
	g.SetExit(exit.ID)
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := Number(g); err == nil {
		t.Fatal("2^45 paths accepted")
	}
	// 30 diamonds (2^30 paths) must still be fine.
	g2 := cfg.New("ok")
	prev = g2.NewBlock("entry").ID
	g2.SetEntry(prev)
	for i := 0; i < 30; i++ {
		a := g2.NewBlock("a")
		b := g2.NewBlock("b")
		join := g2.NewBlock("j")
		mustEdge(t, g2, prev, a.ID)
		mustEdge(t, g2, prev, b.ID)
		mustEdge(t, g2, a.ID, join.ID)
		mustEdge(t, g2, b.ID, join.ID)
		prev = join.ID
	}
	exit2 := g2.NewBlock("exit")
	mustEdge(t, g2, prev, exit2.ID)
	g2.SetExit(exit2.ID)
	if err := g2.Finish(); err != nil {
		t.Fatal(err)
	}
	n, err := Number(g2)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumPaths != 1<<30 {
		t.Fatalf("NumPaths = %d, want 2^30", n.NumPaths)
	}
	// Spot-check a large ID regenerates.
	if _, err := n.Regenerate(1<<30 - 1); err != nil {
		t.Fatal(err)
	}
}

func TestAcyclicPathIDsBijective(t *testing.T) {
	// For moderate acyclic DAGs, every ID in [0, NumPaths) must
	// regenerate to a unique entry-to-exit path.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		g := randomStructured(t, rng, 8)
		n, err := Number(g)
		if err != nil {
			t.Fatal(err)
		}
		if n.NumPaths > 4096 {
			continue
		}
		seen := map[string]bool{}
		for id := uint64(0); id < n.NumPaths; id++ {
			seq, err := n.Regenerate(id)
			if err != nil {
				t.Fatalf("trial %d: id %d: %v", trial, id, err)
			}
			key := ""
			for _, b := range seq {
				key += string(rune(b)) + ","
			}
			if seen[key] {
				t.Fatalf("trial %d: duplicate path for id %d", trial, id)
			}
			seen[key] = true
		}
	}
}
