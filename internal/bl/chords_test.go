package bl

import (
	"math/rand"
	"testing"

	"repro/internal/cfg"
)

// simulateChords walks the graph exactly like simulate, but maintains the
// path register with the chord plan's signed increments.
func simulateChords(t *testing.T, p *ChordPlan, rng *rand.Rand, maxSteps int) []uint64 {
	t.Helper()
	n := p.Num
	g := n.Graph
	r := int64(0) // phi(EXIT) = 0 thanks to the virtual edge
	cur := g.Entry
	var ids []uint64
	for steps := 0; cur != g.Exit; steps++ {
		if steps > maxSteps {
			t.Fatalf("chord simulation did not terminate in %d steps", maxSteps)
		}
		blk := g.Block(cur)
		si := rng.Intn(len(blk.Succs))
		next := blk.Succs[si]
		if n.IsBack[cur][si] {
			cbe := p.BackEdge[cfg.Edge{From: cur, To: next}]
			emit := r + cbe.EmitAdd
			if emit < 0 || uint64(emit) >= n.NumPaths {
				t.Fatalf("chord emission %d outside [0,%d)", emit, n.NumPaths)
			}
			ids = append(ids, uint64(emit))
			r = cbe.Reset
		} else {
			r += p.Inc[cur][si]
		}
		cur = next
	}
	if r < 0 || uint64(r) >= n.NumPaths {
		t.Fatalf("final chord emission %d outside [0,%d)", r, n.NumPaths)
	}
	ids = append(ids, uint64(r))
	return ids
}

// TestChordPlanMatchesFullPlacement is the keystone: the chord-optimized
// instrumentation must emit exactly the same path IDs as the
// every-edge-increment placement, on the same random walks.
func TestChordPlanMatchesFullPlacement(t *testing.T) {
	graphs := []*cfg.Graph{diamond(t), doubleDiamond(t), loop(t)}
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 40; trial++ {
		graphs = append(graphs, randomStructured(t, rng, 3+rng.Intn(20)))
	}
	for gi, g := range graphs {
		n, err := Number(g)
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		plan := BuildChords(n)
		for run := 0; run < 15; run++ {
			seed := rng.Int63()
			full, _ := simulate(t, n, rand.New(rand.NewSource(seed)), 100000)
			chord := simulateChords(t, plan, rand.New(rand.NewSource(seed)), 100000)
			if len(full) != len(chord) {
				t.Fatalf("graph %d: emission counts differ: %d vs %d", gi, len(full), len(chord))
			}
			for i := range full {
				if full[i] != chord[i] {
					t.Fatalf("graph %d run %d: emission %d differs: full=%d chord=%d", gi, run, i, full[i], chord[i])
				}
			}
		}
	}
}

func TestChordPlanReducesSites(t *testing.T) {
	// On structured CFGs the spanning tree removes instrumentation from a
	// substantial fraction of edges.
	rng := rand.New(rand.NewSource(52))
	var sites, total int
	for trial := 0; trial < 30; trial++ {
		g := randomStructured(t, rng, 6+rng.Intn(20))
		n, err := Number(g)
		if err != nil {
			t.Fatal(err)
		}
		p := BuildChords(n)
		sites += p.Sites
		total += p.TotalEdges
		if p.Sites >= p.TotalEdges {
			t.Fatalf("trial %d: no reduction (%d sites of %d edges)", trial, p.Sites, p.TotalEdges)
		}
	}
	if frac := float64(sites) / float64(total); frac > 0.6 {
		t.Fatalf("chords instrument %.0f%% of edges; spanning tree buys too little", frac*100)
	}
}

// weightsFromWalks accumulates an edge-frequency profile from random
// executions.
func weightsFromWalks(t *testing.T, n *Numbering, rng *rand.Rand, walks int) *EdgeWeights {
	t.Helper()
	g := n.Graph
	w := NewEdgeWeights(g)
	for i := 0; i < walks; i++ {
		cur := g.Entry
		for steps := 0; cur != g.Exit; steps++ {
			if steps > 100000 {
				t.Fatal("walk did not terminate")
			}
			blk := g.Block(cur)
			si := rng.Intn(len(blk.Succs))
			w.Real[cur][si]++
			cur = blk.Succs[si]
		}
	}
	return w
}

func TestWeightedChordPlanMatchesFullPlacement(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 25; trial++ {
		g := randomStructured(t, rng, 4+rng.Intn(16))
		n, err := Number(g)
		if err != nil {
			t.Fatal(err)
		}
		weights := weightsFromWalks(t, n, rng, 20)
		plan := BuildChordsWeighted(n, weights)
		for run := 0; run < 10; run++ {
			seed := rng.Int63()
			full, _ := simulate(t, n, rand.New(rand.NewSource(seed)), 100000)
			chord := simulateChords(t, plan, rand.New(rand.NewSource(seed)), 100000)
			if len(full) != len(chord) {
				t.Fatalf("trial %d: emission counts differ", trial)
			}
			for i := range full {
				if full[i] != chord[i] {
					t.Fatalf("trial %d: emission %d differs: %d vs %d", trial, i, full[i], chord[i])
				}
			}
		}
	}
}

func TestWeightedChordsReduceDynamicIncrements(t *testing.T) {
	// Profile-guided placement must execute no more increments than the
	// unweighted tree, and strictly fewer than every-edge placement, when
	// evaluated on the training profile.
	rng := rand.New(rand.NewSource(54))
	var every, unweighted, weighted uint64
	for trial := 0; trial < 30; trial++ {
		g := randomStructured(t, rng, 6+rng.Intn(16))
		n, err := Number(g)
		if err != nil {
			t.Fatal(err)
		}
		weights := weightsFromWalks(t, n, rng, 30)
		pu := BuildChords(n)
		pw := BuildChordsWeighted(n, weights)
		every += TotalEdgeExecutions(weights)
		unweighted += pu.DynamicIncrements(weights)
		weighted += pw.DynamicIncrements(weights)
	}
	if weighted > unweighted {
		t.Fatalf("weighted placement executes more increments: %d vs %d", weighted, unweighted)
	}
	if weighted >= every {
		t.Fatalf("weighted placement no better than every-edge: %d vs %d", weighted, every)
	}
	t.Logf("dynamic increments: every-edge=%d unweighted-chords=%d weighted-chords=%d", every, unweighted, weighted)
}

func TestChordPlanTreeEdgesZero(t *testing.T) {
	g := doubleDiamond(t)
	n, err := Number(g)
	if err != nil {
		t.Fatal(err)
	}
	p := BuildChords(n)
	zero := 0
	for _, incs := range p.Inc {
		for _, inc := range incs {
			if inc == 0 {
				zero++
			}
		}
	}
	if zero == 0 {
		t.Fatal("no zero-increment edges: spanning tree unused")
	}
}
