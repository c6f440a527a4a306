package bl

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cfg"
)

func TestProveSmallGraphs(t *testing.T) {
	cases := []struct {
		name  string
		graph *cfg.Graph
		paths uint64
	}{
		{"diamond", diamond(t), 2},
		{"doubleDiamond", doubleDiamond(t), 4},
	}
	for _, c := range cases {
		proof, err := proveGraph(c.graph, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if proof.Paths != c.paths {
			t.Errorf("%s: proved %d paths, want %d", c.name, proof.Paths, c.paths)
		}
		if proof.Starts != 1 {
			t.Errorf("%s: %d start blocks, want 1 (no loops)", c.name, proof.Starts)
		}
	}
}

func TestProveLoop(t *testing.T) {
	n, err := Number(loop(t))
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if proof.Paths != n.NumPaths {
		t.Fatalf("proved %d paths, NumPaths=%d", proof.Paths, n.NumPaths)
	}
	// Entry plus one loop header.
	if proof.Starts != 2 {
		t.Fatalf("start blocks = %d, want 2", proof.Starts)
	}
}

func TestProveRandomStructuredGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		g := randomStructured(t, rng, 3+rng.Intn(20))
		proof, err := proveGraph(g, 0)
		if err != nil {
			if errors.Is(err, ErrTooManyPaths) {
				continue
			}
			t.Fatalf("trial %d: %v\n%s", trial, err, g.Dot())
		}
		if proof.Paths == 0 {
			t.Fatalf("trial %d: zero paths proved", trial)
		}
	}
}

func TestProveLimit(t *testing.T) {
	_, err := proveGraph(doubleDiamond(t), 2)
	if !errors.Is(err, ErrTooManyPaths) {
		t.Fatalf("limit 2 on a 4-path graph: err=%v, want ErrTooManyPaths", err)
	}
}

// TestProveDetectsCorruption tampers with a valid numbering in each of the
// ways the prover is meant to catch and requires a failure for every one.
func TestProveDetectsCorruption(t *testing.T) {
	t.Run("duplicateEdgeValue", func(t *testing.T) {
		n, err := Number(diamond(t))
		if err != nil {
			t.Fatal(err)
		}
		n.EdgeVal[0][1] = n.EdgeVal[0][0] // two paths now emit the same ID
		if _, err := Prove(n, 0); err == nil {
			t.Fatal("Prove accepted a numbering with duplicate path IDs")
		}
	})
	t.Run("inflatedNumPaths", func(t *testing.T) {
		n, err := Number(diamond(t))
		if err != nil {
			t.Fatal(err)
		}
		n.NumPaths++ // numbering no longer compact
		if _, err := Prove(n, 0); err == nil {
			t.Fatal("Prove accepted a non-compact numbering")
		}
	})
	t.Run("outOfRangeEdgeValue", func(t *testing.T) {
		n, err := Number(diamond(t))
		if err != nil {
			t.Fatal(err)
		}
		n.EdgeVal[0][1] += n.NumPaths // pushes one ID past NumPaths
		if _, err := Prove(n, 0); err == nil {
			t.Fatal("Prove accepted an out-of-range path ID")
		}
	})
	t.Run("wrongBackEdgeReset", func(t *testing.T) {
		n, err := Number(loop(t))
		if err != nil {
			t.Fatal(err)
		}
		for e, instr := range n.BackEdge {
			instr.Reset++
			n.BackEdge[e] = instr
		}
		if _, err := Prove(n, 0); err == nil {
			t.Fatal("Prove accepted a wrong back-edge reset")
		}
	})
	t.Run("wrongBackEdgeEmit", func(t *testing.T) {
		n, err := Number(loop(t))
		if err != nil {
			t.Fatal(err)
		}
		for e, instr := range n.BackEdge {
			instr.EmitAdd++
			n.BackEdge[e] = instr
		}
		if _, err := Prove(n, 0); err == nil {
			t.Fatal("Prove accepted a wrong back-edge emit value")
		}
	})
}

// proveGraph numbers g and proves the numbering.
func proveGraph(g *cfg.Graph, limit uint64) (Proof, error) {
	n, err := Number(g)
	if err != nil {
		return Proof{}, err
	}
	return Prove(n, limit)
}
