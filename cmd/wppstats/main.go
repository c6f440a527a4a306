// wppstats prints size and structure statistics of a .wpp artifact, and
// optionally dumps a prefix of the expanded trace, the recovered path
// profile (the paper's point that a WPP subsumes a Ball–Larus profile),
// or the grammar DAG in Graphviz form.
//
// Both artifact kinds are accepted, monolithic ("WPP1", "WPP2") and
// chunked ("WPC1", "WPC2"), and every report but one reads either: a
// chunked artifact adds its chunk geometry to the statistics. Only -dot
// needs the single monolithic grammar and rejects chunked artifacts with
// an error.
//
// Inputs open through the lazy mmap-backed view layer: the artifact is
// indexed in one cheap pass and chunk grammars materialize one at a time
// for the parts of the report that need them; nothing is decoded whole.
//
// Every run first applies the one grammar-time artifact check (Verify:
// grammar invariants, chunk geometry, event total, path-ID bounds, a
// cost table holding exactly the traced events); no check expands the
// trace. -verify runs VerifyArtifact instead, which adds only the
// duplicate-digram count, and prints its report. Adding -workload name
// recompiles the named built-in workload, cross-checks the function
// tables, proves every Ball–Larus numbering unique and compact, and
// regenerates each distinct traced path ID (the verified cost table's
// events) to a block sequence. Only -dump walks the trace.
//
// -coverage (with -workload name) recompiles the workload, classifies
// every static Ball–Larus path as feasible or infeasible with the
// dataflow framework, and prints observed/feasible/total path counts per
// function, the observed paths again being the verified cost table's. A dynamically observed path the analysis calls infeasible is
// a soundness violation and exits nonzero.
//
// The input may be a file path or a content-addressed store reference:
// "@<hash-prefix>" reads a stored artifact, "<workload>@<scale>" lazily
// builds (or reuses) the named bundled workload. Refs need a store
// directory, from -store or $WPP_STORE.
//
// Usage:
//
//	wppstats [-dump n] [-profile n] [-funcs] [-dot] file.wpp
//	wppstats -verify [-workload name] file.wpp
//	wppstats -store dir @1a2b3c4d
//	wppstats -coverage -workload name file.wpp
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/bl"
	"repro/internal/dataflow"
	"repro/internal/hotpath"
	"repro/internal/interp"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

func main() {
	dump := flag.Int("dump", 0, "also print the first n trace events")
	profile := flag.Int("profile", 0, "also print the top n entries of the recovered path profile")
	funcs := flag.Bool("funcs", false, "also print the per-function cost profile")
	dot := flag.Bool("dot", false, "print the grammar DAG in Graphviz DOT form and exit")
	verify := flag.Bool("verify", false, "print the artifact check's report, with the duplicate-digram count, before the statistics")
	workload := flag.String("workload", "", "with -verify or -coverage: cross-check against this built-in workload")
	coverage := flag.Bool("coverage", false, "with -workload: print per-function path coverage (observed/feasible/total) and exit; nonzero if an observed path is statically infeasible")
	storeDir := flag.String("store", "", "content-addressed store directory for @hash and name@scale inputs (default $WPP_STORE)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wppstats [-dump n] [-profile n] [-funcs] [-dot] [-verify [-workload name]] [-coverage -workload name] [-store dir] (file.wpp | @hash | workload@scale)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	v, err := store.OpenViewInput(flag.Arg(0), store.DirFromFlag(*storeDir), nil)
	if err != nil {
		fatal(err)
	}
	defer v.Close()
	if *workload != "" && !*verify && !*coverage {
		fatal(fmt.Errorf("-workload requires -verify or -coverage"))
	}
	if *coverage && *workload == "" {
		fatal(fmt.Errorf("-coverage requires -workload (the artifact does not carry the program)"))
	}
	if *verify {
		rep, err := v.VerifyArtifact(0)
		if err != nil {
			fatal(fmt.Errorf("artifact fails deep verification: %w", err))
		}
		fmt.Println(rep.String())
	} else if err := v.Verify(0); err != nil {
		fatal(fmt.Errorf("artifact fails verification: %w", err))
	}
	if *coverage {
		coverageReport(*workload, v.FuncTable(), v.DistinctEvents())
		return
	}
	if *workload != "" {
		verifyAgainstWorkload(*workload, v.FuncTable(), v.DistinctEvents())
	}
	table := v.FuncTable()
	if *dot {
		if v.Chunked() {
			fatal(fmt.Errorf("-dot supports only monolithic artifacts (chunked artifacts have one grammar per chunk)"))
		}
		w, err := v.WPP()
		if err != nil {
			fatal(err)
		}
		fmt.Print(w.Grammar.Dot(func(sym uint64) string { return iwpp.EventName(table, trace.Event(sym)) }))
		return
	}
	st, err := v.Stats(0)
	if err != nil {
		fatal(err)
	}
	kind := "wpp"
	fmt.Printf("format:         %s\n", v.Format())
	fmt.Printf("functions:      %d\n", len(table))
	fmt.Printf("events:         %d\n", st.Events)
	fmt.Printf("distinct paths: %d\n", st.DistinctPaths)
	fmt.Printf("instructions:   %d\n", v.TotalInstructions())
	if v.Chunked() {
		kind = "wpc"
		fmt.Printf("chunks:         %d (size %d)\n", st.Chunks, st.ChunkSize)
	}
	fmt.Printf("rules:          %d\n", st.Rules)
	fmt.Printf("rhs symbols:    %d\n", st.RHSSymbols)
	if v.Chunked() {
		fmt.Printf("peak live rhs:  %d\n", st.PeakLiveRHS)
	}
	fmt.Printf("raw trace:      %d bytes\n", st.RawTraceBytes)
	fmt.Printf("%s:            %d bytes (%.1fx)\n", kind, st.EncodedBytes, float64(st.RawTraceBytes)/float64(st.EncodedBytes))
	fmt.Printf("grammar only:   %d bytes\n", st.GrammarBytes)
	if *dump > 0 {
		fmt.Println("trace prefix:")
		n := 0
		err := v.Walk(func(e trace.Event) bool {
			fmt.Printf("  %6d  %s\n", n, iwpp.EventName(table, e))
			n++
			return n < *dump
		})
		if err != nil {
			fatal(err)
		}
	}
	if *profile > 0 {
		entries, err := hotpath.PathProfileView(v, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Println("path profile (recovered from the compressed trace):")
		for i, p := range entries {
			if i >= *profile {
				break
			}
			fmt.Printf("  %-20s x%-10d cost=%-12d %6.2f%%\n", iwpp.EventName(table, p.Event), p.Count, p.Cost, p.Fraction*100)
		}
	}
	if *funcs {
		entries, err := hotpath.FuncProfile(v, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Println("function profile:")
		for _, fp := range entries {
			fmt.Printf("  %-16s events=%-10d cost=%-12d %6.2f%%\n", iwpp.FuncName(table, fp.Func), fp.Events, fp.Cost, fp.Fraction*100)
		}
	}
}

// compileWorkload recompiles the named built-in workload and holds the
// artifact's function table to it: the same functions under the same
// names, and, where the artifact records path counts, the same counts
// as the recompiled Ball–Larus numberings.
func compileWorkload(name string, funcs []iwpp.FuncInfo) (*wlc.Program, []*bl.Numbering) {
	wl, err := workloads.ByName(name)
	if err != nil {
		fatal(err)
	}
	prog, err := wlc.Compile(wl.Source)
	if err != nil {
		fatal(fmt.Errorf("recompiling workload %s: %w", name, err))
	}
	nums, err := interp.Numberings(prog)
	if err != nil {
		fatal(err)
	}
	if len(funcs) != len(nums) {
		fatal(fmt.Errorf("artifact has %d functions, workload %s compiles to %d", len(funcs), name, len(nums)))
	}
	for i, f := range funcs {
		if f.Name != prog.Funcs[i].Name {
			fatal(fmt.Errorf("function %d is %q in the artifact but %q in workload %s", i, f.Name, prog.Funcs[i].Name, name))
		}
		if f.NumPaths > 0 && f.NumPaths != nums[i].NumPaths {
			fatal(fmt.Errorf("%s: artifact records %d paths, recompiled numbering has %d", f.Name, f.NumPaths, nums[i].NumPaths))
		}
	}
	return prog, nums
}

// verifyAgainstWorkload holds a verified artifact to the named built-in
// workload: the function tables must agree (compileWorkload), every
// recompiled Ball–Larus numbering must pass the exhaustive
// uniqueness/compactness proof, and every distinct traced event must
// regenerate to a block sequence of the recompiled CFG. Functions with
// more acyclic paths than the proof limit are reported and skipped,
// matching the interpreter's own path-explosion guard.
func verifyAgainstWorkload(name string, funcs []iwpp.FuncInfo, distinct []trace.Event) {
	prog, nums := compileWorkload(name, funcs)
	proved, skipped := 0, 0
	for i, n := range nums {
		if _, err := bl.Prove(n, 0); err != nil {
			if errors.Is(err, bl.ErrTooManyPaths) {
				fmt.Printf("bl: %s: skipped (%v)\n", prog.Funcs[i].Name, err)
				skipped++
				continue
			}
			fatal(fmt.Errorf("numbering proof failed: %w", err))
		}
		proved++
	}
	// Verify has bounded every event's function by the table, which
	// compileWorkload matched to the workload.
	for _, e := range distinct {
		if _, err := nums[e.Func()].Regenerate(e.Path()); err != nil {
			fatal(fmt.Errorf("event %v fails to regenerate: %w", e, err))
		}
	}
	fmt.Printf("bl: workload %s cross-checked: %d/%d numbering(s) proved unique+compact (%d skipped), %d distinct path(s) regenerated\n",
		name, proved, len(nums), skipped, len(distinct))
}

// coverageReport recompiles the named workload, runs the feasible-path
// analysis on it, and reports per-function path coverage: how many of
// the verified artifact's distinct path IDs each function observed, how
// many the analysis classifies feasible, and the total static path
// count. An observed path classified infeasible is a soundness violation
// and exits nonzero.
func coverageReport(name string, funcs []iwpp.FuncInfo, distinct []trace.Event) {
	prog, _ := compileWorkload(name, funcs)
	sets, err := dataflow.FeasiblePaths(prog, 0)
	if err != nil {
		fatal(fmt.Errorf("feasible-path analysis failed: %w", err))
	}
	observed := make([][]uint64, len(prog.Funcs))
	for _, e := range distinct {
		observed[e.Func()] = append(observed[e.Func()], e.Path())
	}

	fmt.Printf("path coverage (workload %s):\n", name)
	fmt.Printf("  %-16s %10s %10s %10s %9s\n", "function", "observed", "feasible", "total", "coverage")
	violations := 0
	for i, fn := range prog.Funcs {
		ps := sets[i]
		for _, id := range observed[i] {
			if !ps.IsFeasible(id) {
				fmt.Fprintf(os.Stderr, "wppstats: %s: observed path %d is classified statically infeasible\n", fn.Name, id)
				violations++
			}
		}
		cov := 0.0
		if ps.FeasibleCount > 0 {
			cov = float64(len(observed[i])) / float64(ps.FeasibleCount) * 100
		}
		note := ""
		if ps.Skipped {
			note = " (enumeration skipped; all paths assumed feasible)"
		}
		fmt.Printf("  %-16s %10d %10d %10d %8.2f%%%s\n",
			fn.Name, len(observed[i]), ps.FeasibleCount, ps.NumPaths, cov, note)
	}
	if violations > 0 {
		fatal(fmt.Errorf("%d observed path(s) classified infeasible: %w", violations, dataflow.ErrInfeasibleObserved))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wppstats:", err)
	os.Exit(1)
}
