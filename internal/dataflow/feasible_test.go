package dataflow

import (
	"errors"
	"io"
	"testing"

	"repro/internal/bl"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
)

func feasibleFor(t *testing.T, src, name string) (*wlc.Func, *PathSet) {
	t.Helper()
	f := compileFunc(t, src, name)
	num, err := bl.Number(f.Graph)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := FeasiblePathsFunc(f, num, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f, ps
}

func TestFeasibleConstantBranch(t *testing.T) {
	_, ps := feasibleFor(t, `
func main(n) {
    var x = 0;
    if x { return 1; }
    return 2;
}`, "main")
	if ps.NumPaths != 2 {
		t.Fatalf("NumPaths = %d, want 2", ps.NumPaths)
	}
	if ps.FeasibleCount != 1 {
		t.Errorf("FeasibleCount = %d, want 1 (the `if 0` taken path is impossible)", ps.FeasibleCount)
	}
}

func TestFeasibleCorrelatedBranches(t *testing.T) {
	// Three static paths; the (n > 5, n < 3) one cannot execute.
	_, ps := feasibleFor(t, `
func main(n) {
    if n > 5 {
        if n < 3 { return 9; }
        return 1;
    }
    return 0;
}`, "main")
	if ps.NumPaths != 3 {
		t.Fatalf("NumPaths = %d, want 3", ps.NumPaths)
	}
	if ps.FeasibleCount != 2 {
		t.Errorf("FeasibleCount = %d, want 2", ps.FeasibleCount)
	}
}

func TestFeasibleAllReachable(t *testing.T) {
	_, ps := feasibleFor(t, `
func main(n) {
    if n > 5 { return 1; }
    return 0;
}`, "main")
	if ps.NumPaths != 2 || ps.FeasibleCount != 2 {
		t.Errorf("got %d/%d feasible, want 2/2", ps.FeasibleCount, ps.NumPaths)
	}
}

func TestFeasibleLoopHeaderStartsAreUnknown(t *testing.T) {
	// Ball–Larus paths split at the loop header. The entry-start path
	// that enters the loop runs the FIRST iteration, where i is provably
	// 0 — so the entry path through `i > 2` is genuinely infeasible.
	// Header-start paths model later iterations, where i is unknown, so
	// both arms stay feasible there. 5 of the 6 static paths survive.
	_, ps := feasibleFor(t, `
func main(n) {
    var i = 0;
    var acc = 0;
    while i < n {
        if i > 2 { acc = acc + 2; } else { acc = acc + 1; }
        i = i + 1;
    }
    return acc;
}`, "main")
	if ps.NumPaths != 6 {
		t.Fatalf("NumPaths = %d, want 6", ps.NumPaths)
	}
	if ps.FeasibleCount != 5 {
		t.Errorf("FeasibleCount = %d, want 5 (first-iteration i=0 kills the entry path through i > 2)", ps.FeasibleCount)
	}
}

func TestFeasibleSkipOverLimit(t *testing.T) {
	f := compileFunc(t, `
func main(n) {
    var a = 0;
    if n > 1 { a = 1; }
    if n > 2 { a = 2; }
    if n > 3 { a = 3; }
    return a;
}`, "main")
	num, err := bl.Number(f.Graph)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := FeasiblePathsFunc(f, num, 2) // 8 paths > 2
	if err != nil {
		t.Fatal(err)
	}
	if !ps.Skipped {
		t.Fatal("function over the limit not skipped")
	}
	for id := uint64(0); id < ps.NumPaths; id++ {
		if !ps.IsFeasible(id) {
			t.Fatalf("skipped function classified path %d infeasible", id)
		}
	}
	if ps.IsFeasible(ps.NumPaths) {
		t.Error("out-of-range ID classified feasible")
	}
}

func TestCheckObserved(t *testing.T) {
	_, ps := feasibleFor(t, `
func main(n) {
    var x = 0;
    if x { return 1; }
    return 2;
}`, "main")
	var infeasible uint64
	for id := uint64(0); id < ps.NumPaths; id++ {
		if !ps.IsFeasible(id) {
			infeasible = id
		}
	}
	if err := ps.CheckObserved("main", []uint64{infeasible}); !errors.Is(err, ErrInfeasibleObserved) {
		t.Fatalf("CheckObserved(infeasible) = %v, want ErrInfeasibleObserved", err)
	}
	feasibleIDs := []uint64{}
	for id := uint64(0); id < ps.NumPaths; id++ {
		if ps.IsFeasible(id) {
			feasibleIDs = append(feasibleIDs, id)
		}
	}
	if err := ps.CheckObserved("main", feasibleIDs); err != nil {
		t.Fatalf("CheckObserved(feasible) = %v, want nil", err)
	}
}

// TestFeasibleDifferentialOnWorkloads is the soundness cross-check from
// the issue, on every bundled workload:
//
//   - observed ⊆ feasible: every path ID the interpreter actually emits
//     must be classified feasible;
//   - feasible ⊆ enumerated: every feasible ID must regenerate to a real
//     acyclic path of the numbering bl.Prove certified.
//
// It also asserts the analysis has teeth: at least one workload must
// show FeasibleCount < NumPaths in some function.
func TestFeasibleDifferentialOnWorkloads(t *testing.T) {
	anyPruned := false
	for _, w := range workloads.All {
		p, err := wlc.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		sets, err := FeasiblePaths(p, 0)
		if err != nil {
			t.Fatalf("%s: FeasiblePaths: %v", w.Name, err)
		}

		// Dynamic side: collect every distinct (func, path) event.
		observed := make([]map[uint64]bool, len(p.Funcs))
		for i := range observed {
			observed[i] = make(map[uint64]bool)
		}
		m, err := interp.New(p, interp.Config{
			Mode:   interp.PathTrace,
			Sink:   trace.SinkFunc(func(e trace.Event) { observed[e.Func()][e.Path()] = true }),
			Stdout: io.Discard,
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if _, err := m.Run("main", w.Small); err != nil {
			t.Fatalf("%s: run: %v", w.Name, err)
		}

		for fi, f := range p.Funcs {
			ps := sets[fi]

			// observed ⊆ feasible.
			for id := range observed[fi] {
				if !ps.IsFeasible(id) {
					t.Errorf("%s/%s: observed path %d classified infeasible (unsound)", w.Name, f.Name, id)
				}
			}

			if ps.Skipped {
				continue
			}
			if ps.FeasibleCount < ps.NumPaths {
				anyPruned = true
			}

			// feasible ⊆ enumerated: the numbering's path space is exactly
			// [0, NumPaths) (certified by Prove), and each feasible ID must
			// regenerate to a concrete block sequence.
			num := m.Numberings()[fi]
			if _, err := bl.Prove(num, bl.DefaultProveLimit); err != nil {
				t.Fatalf("%s/%s: prove: %v", w.Name, f.Name, err)
			}
			for id := uint64(0); id < ps.NumPaths; id++ {
				if !ps.IsFeasible(id) {
					continue
				}
				if _, err := num.Regenerate(id); err != nil {
					t.Errorf("%s/%s: feasible path %d does not regenerate: %v", w.Name, f.Name, id, err)
				}
			}
		}
	}
	if !anyPruned {
		t.Error("no workload function has FeasibleCount < NumPaths; the analysis proved nothing")
	}
}
