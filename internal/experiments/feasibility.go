package experiments

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/wlc"
)

// ---------------------------------------------------------------------
// F1: static path feasibility vs the dynamic trace.
//
// The paper's path counts (Table 1) are purely structural: every acyclic
// path of the Ball–Larus numbering, executable or not. F1 splits that
// static count with the dataflow framework — how many paths survive
// feasible-path analysis — and holds both against the dynamic trace:
// every observed path must be feasible (soundness), and the feasible
// count bounds achievable path coverage much tighter than the structural
// total does.

// F1Row summarizes one workload's path feasibility.
type F1Row struct {
	Name string
	// Funcs is the number of functions in the compiled workload.
	Funcs int
	// StaticPaths is the structural path count over all functions.
	StaticPaths uint64
	// FeasiblePaths of those survive feasible-path analysis.
	FeasiblePaths uint64
	// ObservedPaths is the number of distinct path IDs in the trace.
	ObservedPaths int
	// SkippedFuncs counts functions over the enumeration limit (their
	// paths are conservatively all feasible).
	SkippedFuncs int
	// BranchesFolded is how many conditional branches the IR dead-branch
	// pass rewrites to jumps on this workload.
	BranchesFolded int
	// CoverageStatic and CoverageFeasible are observed/total and
	// observed/feasible in percent.
	CoverageStatic, CoverageFeasible float64
}

// F1 classifies every workload's static paths as feasible or infeasible
// and cross-checks the dynamic trace against the classification. An
// observed-but-infeasible path fails the experiment: the table would be
// reporting numbers from an unsound analysis.
func F1(scale Scale) ([]F1Row, *Table, error) {
	arts, err := RunAll(scale)
	if err != nil {
		return nil, nil, err
	}
	var rows []F1Row
	tbl := &Table{
		ID:     "F1",
		Title:  "static path feasibility vs dynamic coverage",
		Header: []string{"workload", "funcs", "static", "feasible", "observed", "cov/static", "cov/feasible", "folded branches"},
		Notes: []string{
			"feasible = paths surviving constant/interval propagation with branch refinement along each acyclic path",
			"every observed path is verified feasible (soundness cross-check); folded branches come from the IR dead-branch pass",
		},
	}
	for _, a := range arts {
		sets, err := dataflow.FeasiblePaths(a.prog, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", a.workload.Name, err)
		}

		observed := make([]map[uint64]bool, len(a.prog.Funcs))
		for i := range observed {
			observed[i] = make(map[uint64]bool)
		}
		for _, e := range a.Events {
			observed[e.Func()][e.Path()] = true
		}

		r := F1Row{Name: a.workload.Name, Funcs: len(a.prog.Funcs)}
		for fi, ps := range sets {
			r.StaticPaths += ps.NumPaths
			r.FeasiblePaths += ps.FeasibleCount
			r.ObservedPaths += len(observed[fi])
			if ps.Skipped {
				r.SkippedFuncs++
			}
			for id := range observed[fi] {
				if !ps.IsFeasible(id) {
					return nil, nil, fmt.Errorf("%s/%s: observed path %d classified infeasible: %w",
						a.workload.Name, a.prog.Funcs[fi].Name, id, dataflow.ErrInfeasibleObserved)
				}
			}
		}
		if r.StaticPaths > 0 {
			r.CoverageStatic = float64(r.ObservedPaths) / float64(r.StaticPaths) * 100
		}
		if r.FeasiblePaths > 0 {
			r.CoverageFeasible = float64(r.ObservedPaths) / float64(r.FeasiblePaths) * 100
		}

		// The dead-branch pass mutates the program, so it runs on a fresh
		// compile rather than the artifact's.
		fresh, err := wlc.Compile(a.workload.Source)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", a.workload.Name, err)
		}
		rep, err := dataflow.EliminateDeadBranches(fresh)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: dead-branch: %w", a.workload.Name, err)
		}
		r.BranchesFolded = rep.BranchesFolded

		rows = append(rows, r)
		tbl.Rows = append(tbl.Rows, []string{
			r.Name, fmt.Sprint(r.Funcs), fmt.Sprint(r.StaticPaths), fmt.Sprint(r.FeasiblePaths),
			fmt.Sprint(r.ObservedPaths), fmt.Sprintf("%.1f%%", r.CoverageStatic),
			fmt.Sprintf("%.1f%%", r.CoverageFeasible), fmt.Sprint(r.BranchesFolded),
		})
	}
	return rows, tbl, nil
}
