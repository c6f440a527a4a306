// wppstats prints size and structure statistics of a .wpp artifact, and
// optionally dumps a prefix of the expanded trace, the recovered path
// profile (the paper's point that a WPP subsumes a Ball–Larus profile),
// or the grammar DAG in Graphviz form.
//
// Both artifact kinds are accepted: monolithic ("WPP1") and chunked
// ("WPC1"). -dump works on either; -dot, -profile, and -funcs need the
// monolithic grammar and reject chunked artifacts with an error.
//
// Inputs open through the lazy mmap-backed view layer: the artifact is
// indexed in one cheap pass and chunk grammars materialize only for the
// parts of the report that need them, so header-level statistics print
// without decoding the trace.
//
// -verify runs the deep artifact checker (SEQUITUR grammar invariants,
// chunk geometry, path-ID bounds) before printing statistics, and exits
// nonzero on any violation. Adding -workload name recompiles the named
// built-in workload, cross-checks the artifact's function table against
// the recompiled program, proves every Ball–Larus numbering unique and
// compact by exhaustive path enumeration, and regenerates each distinct
// traced path ID back to a block sequence.
//
// -coverage (with -workload name) recompiles the workload, classifies
// every static Ball–Larus path as feasible or infeasible with the
// dataflow framework, and prints observed/feasible/total path counts per
// function. A dynamically observed path the analysis calls infeasible is
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
	"sort"

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
	verify := flag.Bool("verify", false, "deep-verify the artifact (grammar invariants, path-ID bounds) before printing statistics")
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
	format := v.Format()
	if *workload != "" && !*verify && !*coverage {
		fatal(fmt.Errorf("-workload requires -verify or -coverage"))
	}
	if *coverage && *workload == "" {
		fatal(fmt.Errorf("-coverage requires -workload (the artifact does not carry the program)"))
	}
	if v.Chunked() {
		if *coverage {
			coverageReport(*workload, v.FuncTable(), distinctWalk(v))
			return
		}
		chunkedStats(v, format, *dump, *verify, *profile > 0, *funcs, *dot, *workload)
		return
	}
	if *coverage {
		if err := v.Verify(0); err != nil {
			fatal(fmt.Errorf("artifact fails verification: %w", err))
		}
		coverageReport(*workload, v.FuncTable(), distinctWalk(v))
		return
	}
	if err := v.Verify(0); err != nil {
		fatal(fmt.Errorf("artifact fails verification: %w", err))
	}
	if *verify {
		w, err := v.WPP()
		if err != nil {
			fatal(err)
		}
		rep, err := w.VerifyArtifact()
		if err != nil {
			fatal(fmt.Errorf("artifact fails deep verification: %w", err))
		}
		fmt.Println(rep.String())
		if *workload != "" {
			verifyAgainstWorkload(*workload, w.Funcs, w.Walk)
		}
	}
	table := v.FuncTable()
	name := func(e trace.Event) string {
		if int(e.Func()) < len(table) {
			return table[e.Func()].Name
		}
		return fmt.Sprintf("f%d", e.Func())
	}
	if *dot {
		w, err := v.WPP()
		if err != nil {
			fatal(err)
		}
		fmt.Print(w.Grammar.Dot(func(v uint64) string {
			e := trace.Event(v)
			return fmt.Sprintf("%s:%d", name(e), e.Path())
		}))
		return
	}
	sum, err := v.Summarize(0)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("format:         %s\n", format)
	fmt.Printf("functions:      %d\n", len(table))
	fmt.Printf("events:         %d\n", v.NumEvents())
	fmt.Printf("distinct paths: %d\n", v.DistinctPaths())
	fmt.Printf("instructions:   %d\n", v.TotalInstructions())
	fmt.Printf("rules:          %d\n", sum.Rules)
	fmt.Printf("rhs symbols:    %d\n", sum.RHSSymbols)
	fmt.Printf("raw trace:      %d bytes\n", sum.RawTraceBytes)
	fmt.Printf("wpp:            %d bytes (%.1fx)\n", v.Size(), float64(sum.RawTraceBytes)/float64(v.Size()))
	fmt.Printf("grammar only:   %d bytes\n", sum.GrammarBytes)
	if *dump > 0 {
		fmt.Println("trace prefix:")
		n := 0
		err := v.Walk(func(e trace.Event) bool {
			fmt.Printf("  %6d  %s:%d\n", n, name(e), e.Path())
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
			fmt.Printf("  %-20s x%-10d cost=%-12d %6.2f%%\n",
				fmt.Sprintf("%s:%d", name(p.Event), p.Event.Path()), p.Count, p.Cost, p.Fraction*100)
		}
	}
	if *funcs {
		entries, err := hotpath.FuncProfileView(v, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Println("function profile:")
		for _, fp := range entries {
			fname := fmt.Sprintf("f%d", fp.Func)
			if int(fp.Func) < len(table) {
				fname = table[fp.Func].Name
			}
			fmt.Printf("  %-16s events=%-10d cost=%-12d %6.2f%%\n", fname, fp.Events, fp.Cost, fp.Fraction*100)
		}
	}
}

// chunkedStats is the chunked-artifact branch: structure statistics plus
// -dump (the trace walk works per chunk). The grammar-level views need
// the single monolithic grammar and are rejected.
func chunkedStats(v *iwpp.ArtifactView, format string, dump int, verify, profile, funcs, dot bool, workload string) {
	if dot {
		fatal(fmt.Errorf("-dot supports only monolithic artifacts (chunked artifacts have one grammar per chunk)"))
	}
	if profile || funcs {
		fatal(fmt.Errorf("-profile and -funcs support only monolithic artifacts"))
	}
	if err := v.Verify(0); err != nil {
		fatal(fmt.Errorf("artifact fails verification: %w", err))
	}
	if verify {
		c, err := v.ChunkedWPP()
		if err != nil {
			fatal(err)
		}
		rep, err := c.VerifyArtifact()
		if err != nil {
			fatal(fmt.Errorf("artifact fails deep verification: %w", err))
		}
		fmt.Println(rep.String())
		if workload != "" {
			verifyAgainstWorkload(workload, c.Funcs, c.Walk)
		}
	}
	sum, err := v.Summarize(0)
	if err != nil {
		fatal(err)
	}
	table := v.FuncTable()
	raw, enc := sum.RawTraceBytes, v.Size()
	fmt.Printf("format:         %s\n", format)
	fmt.Printf("functions:      %d\n", len(table))
	fmt.Printf("events:         %d\n", v.NumEvents())
	fmt.Printf("distinct paths: %d\n", v.DistinctPaths())
	fmt.Printf("instructions:   %d\n", v.TotalInstructions())
	fmt.Printf("chunks:         %d (size %d)\n", v.NumChunks(), v.ChunkSize())
	fmt.Printf("rules:          %d\n", sum.Rules)
	fmt.Printf("rhs symbols:    %d\n", sum.RHSSymbols)
	fmt.Printf("peak live rhs:  %d\n", v.PeakLiveRHS())
	fmt.Printf("raw trace:      %d bytes\n", raw)
	fmt.Printf("wpc:            %d bytes (%.1fx)\n", enc, float64(raw)/float64(enc))
	fmt.Printf("grammar only:   %d bytes\n", sum.GrammarBytes)
	if dump > 0 {
		fmt.Println("trace prefix:")
		n := 0
		err := v.Walk(func(e trace.Event) bool {
			name := fmt.Sprintf("f%d", e.Func())
			if int(e.Func()) < len(table) {
				name = table[e.Func()].Name
			}
			fmt.Printf("  %6d  %s:%d\n", n, name, e.Path())
			n++
			return n < dump
		})
		if err != nil {
			fatal(err)
		}
	}
}

// distinctWalk adapts a view to the walk signature the workload
// cross-checks expect, yielding each distinct traced event exactly once
// in ascending order. The checks only consume the distinct event set,
// so this is computed grammar-side — chunk-parallel event frequencies,
// entries with nonzero count — instead of expanding the trace.
func distinctWalk(v *iwpp.ArtifactView) func(func(trace.Event) bool) {
	return func(yield func(trace.Event) bool) {
		freqs, err := hotpath.EventFrequenciesView(v, 0)
		if err != nil {
			fatal(err)
		}
		events := make([]trace.Event, 0, len(freqs))
		for e, n := range freqs {
			if n > 0 {
				events = append(events, e)
			}
		}
		sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
		for _, e := range events {
			if !yield(e) {
				return
			}
		}
	}
}

// verifyAgainstWorkload recompiles the named built-in workload and holds
// the artifact to it: the function tables must agree (names and, where
// the artifact records them, path counts), every recompiled Ball–Larus
// numbering must pass the exhaustive uniqueness/compactness proof, and
// every distinct path ID in the trace must regenerate to a block
// sequence of the recompiled CFG. Functions with more acyclic paths than
// the proof limit are reported and skipped, matching the interpreter's
// own path-explosion guard.
func verifyAgainstWorkload(name string, funcs []iwpp.FuncInfo, walk func(func(trace.Event) bool)) {
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
	var regenerated int
	var bad error
	distinct := map[trace.Event]bool{}
	walk(func(e trace.Event) bool {
		if distinct[e] {
			return true
		}
		distinct[e] = true
		if int(e.Func()) >= len(nums) {
			bad = fmt.Errorf("event %v references function %d beyond the workload's %d", e, e.Func(), len(nums))
			return false
		}
		if _, err := nums[e.Func()].Regenerate(e.Path()); err != nil {
			bad = fmt.Errorf("event %v fails to regenerate: %w", e, err)
			return false
		}
		regenerated++
		return true
	})
	if bad != nil {
		fatal(bad)
	}
	fmt.Printf("bl: workload %s cross-checked: %d/%d numbering(s) proved unique+compact (%d skipped), %d distinct path(s) regenerated\n",
		name, proved, len(nums), skipped, regenerated)
}

// coverageReport recompiles the named workload, runs the feasible-path
// analysis on it, and reports per-function path coverage: how many
// distinct path IDs the trace observed, how many the analysis classifies
// feasible, and the total static path count. An observed path classified
// infeasible is a soundness violation and exits nonzero.
func coverageReport(name string, funcs []iwpp.FuncInfo, walk func(func(trace.Event) bool)) {
	wl, err := workloads.ByName(name)
	if err != nil {
		fatal(err)
	}
	prog, err := wlc.Compile(wl.Source)
	if err != nil {
		fatal(fmt.Errorf("recompiling workload %s: %w", name, err))
	}
	if len(funcs) != len(prog.Funcs) {
		fatal(fmt.Errorf("artifact has %d functions, workload %s compiles to %d", len(funcs), name, len(prog.Funcs)))
	}
	for i, f := range funcs {
		if f.Name != prog.Funcs[i].Name {
			fatal(fmt.Errorf("function %d is %q in the artifact but %q in workload %s", i, f.Name, prog.Funcs[i].Name, name))
		}
	}
	sets, err := dataflow.FeasiblePaths(prog, 0)
	if err != nil {
		fatal(fmt.Errorf("feasible-path analysis failed: %w", err))
	}

	observed := make([]map[uint64]bool, len(prog.Funcs))
	for i := range observed {
		observed[i] = make(map[uint64]bool)
	}
	var bad error
	walk(func(e trace.Event) bool {
		if int(e.Func()) >= len(sets) {
			bad = fmt.Errorf("event %v references function %d beyond the workload's %d", e, e.Func(), len(sets))
			return false
		}
		observed[e.Func()][e.Path()] = true
		return true
	})
	if bad != nil {
		fatal(bad)
	}

	fmt.Printf("path coverage (workload %s):\n", name)
	fmt.Printf("  %-16s %10s %10s %10s %9s\n", "function", "observed", "feasible", "total", "coverage")
	violations := 0
	for i, fn := range prog.Funcs {
		ps := sets[i]
		for id := range observed[i] {
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
