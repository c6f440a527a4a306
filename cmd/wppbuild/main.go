// wppbuild produces a whole-program-path artifact, either by running a
// program under instrumentation with online compression, or by
// compressing an existing raw trace written by wpptrace.
//
// Usage:
//
//	wppbuild -o out.wpp program.wl [arg ...]      # run + compress online
//	wppbuild -o out.wpp -workload expr -scale medium
//	wppbuild -o out.wpp -trace trace.wpt          # compress a raw trace
//	wppbuild -o out.wpp -chunk 65536 -workers 8 program.wl [arg ...]
//
// Every input path feeds the same wpp.Builder interface: -chunk N > 0
// selects the parallel chunked pipeline on -workers goroutines (default:
// all cores), producing a chunked artifact (magic "WPC1"); without
// -chunk the classic monolithic artifact ("WPP1") is built. The artifact
// is byte-identical for every worker count. -format wpp2 writes the v2
// encoding (varint/delta-packed cost table, rank-coded terminals), which
// is never larger than v1. All four formats are registered with the
// artifact codec, so wpphot, wppstats, and wppdiff read any of them.
//
// Building from a raw trace loses per-path instruction costs (the trace
// format does not carry them); analyses then weight every path equally.
//
// -store DIR (default $WPP_STORE) additionally records the artifact in
// the content-addressed store — chunk grammars dedup against prior runs
// — registers the build tuple in the store's index so later
// "name@scale" refs resolve without rebuilding, and prints the
// artifact's hash for use as an "@hash" ref.
//
// -verify proves every function's Ball–Larus numbering unique and
// compact by exhaustive path enumeration before the run, and checks the
// finished artifact before it is written with VerifyArtifact: the one
// grammar-time artifact check (grammar invariants, chunk geometry,
// event total, path-ID bounds, a cost table holding exactly the traced
// events) plus the duplicate-digram count. When the artifact was built
// by running a program (not from a raw trace), -verify additionally runs
// the static feasible-path analysis and requires every distinct observed
// path ID — the verified cost table's events — to be classified
// feasible: a dynamic cross-check of the dataflow framework against the
// interpreter.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/bl"
	"repro/internal/collect"
	"repro/internal/dataflow"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/obsv"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

func main() {
	out := flag.String("o", "out.wpp", "output WPP file")
	traceFile := flag.String("trace", "", "build from a raw trace file instead of running a program")
	workload := flag.String("workload", "", "build from a built-in workload")
	scaleFlag := flag.String("scale", "small", "workload scale (small|medium|large)")
	chunk := flag.Uint64("chunk", 0, "chunk size in events; >0 builds a chunked artifact with the parallel pipeline")
	format := flag.String("format", "wpp1", "on-disk encoding: wpp1 (classic) or wpp2 (delta/varint-packed, never larger)")
	verify := flag.Bool("verify", false, "prove the Ball–Larus numberings and deep-verify the artifact before writing it")
	workers := flag.Int("workers", 0, "parallel compression workers for -chunk (0 = all cores)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. :6060)")
	progress := flag.Duration("progress", 0, "emit a progress line to stderr at this interval (e.g. 1s)")
	storeDir := flag.String("store", "", "also record the artifact in the content-addressed store at this directory (default $WPP_STORE) and print its hash")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wppbuild -o out.wpp [-chunk n] [-workers w] [-format wpp1|wpp2] [-verify] [-store dir] [-debug-addr addr] [-progress interval] (program.wl [arg ...] | -workload name [-scale s] | -trace in.wpt)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	version, err := formatVersion(*format)
	if err != nil {
		fatal(err)
	}

	reg := obsv.NewRegistry()
	met := iwpp.NewBuildMetrics(reg)
	ratio := reg.FloatGauge("wpp_compression_ratio")
	encodedBytes := reg.Counter("wpp_encoded_bytes_total")
	shutdown, err := obsv.Setup(reg, *debugAddr, "wppbuild", *progress, os.Stderr)
	if err != nil {
		fatal(err)
	}

	// Every input path builds through the unified Builder interface; the
	// construction strategy is chosen by options, not by entry point.
	newBuilder := collect.Build(iwpp.BuildOptions{ChunkSize: *chunk, Workers: *workers, Metrics: met})

	// With -verify, prove every numbering unique and compact before the
	// run; the artifact itself is deep-checked after it is built.
	if *verify {
		inner := newBuilder
		newBuilder = func(names []string, nums []*bl.Numbering) iwpp.Builder {
			proveNumberings(names, nums)
			return inner(names, nums)
		}
	}

	var a iwpp.Artifact
	var rep *iwpp.BuildReport
	var prog *wlc.Program
	// buildKey identifies the build in the store's index; nil for raw
	// traces, which carry no program identity worth indexing.
	var buildKey *store.BuildKey
	switch {
	case *traceFile != "":
		a, rep, err = fromTrace(*traceFile, newBuilder)
	case *workload != "":
		wl, werr := workloads.ByName(*workload)
		if werr != nil {
			fatal(werr)
		}
		scale, serr := experiments.ParseScale(*scaleFlag)
		if serr != nil {
			fatal(serr)
		}
		a, rep, prog, err = fromSource(wl.Source, []int64{scale.Arg(wl)}, newBuilder)
		buildKey = &store.BuildKey{Workload: *workload, Scale: *scaleFlag, Chunk: *chunk, Workers: *workers, Format: *format}
	case flag.NArg() >= 1:
		data, rerr := os.ReadFile(flag.Arg(0))
		if rerr != nil {
			fatal(rerr)
		}
		var args []int64
		for _, s := range flag.Args()[1:] {
			v, perr := strconv.ParseInt(s, 10, 64)
			if perr != nil {
				fatal(fmt.Errorf("bad argument %q: %w", s, perr))
			}
			args = append(args, v)
		}
		a, rep, prog, err = fromSource(string(data), args, newBuilder)
		buildKey = &store.BuildKey{Program: store.HashOf(data).String(), Args: args, Chunk: *chunk, Workers: *workers, Format: *format}
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	iwpp.SetVersion(a, version)
	if *verify {
		vrep, verr := a.VerifyArtifact(*workers)
		if verr != nil {
			fatal(fmt.Errorf("artifact fails deep verification: %w", verr))
		}
		fmt.Println(vrep.String())
		if prog != nil {
			checkFeasibility(prog, a)
		}
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	n, err := a.Encode(&obsv.CountingWriter{W: f, C: encodedBytes})
	if err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	if rep != nil {
		ratio.Set(rep.Ratio)
	}
	printArtifact(a, rep, n, *out)
	// Write-through: record the artifact (and, when the build has a
	// stable identity, its build key) in the content-addressed store.
	if dir := store.DirFromFlag(*storeDir); dir != "" {
		st, serr := store.Open(dir, store.NewMetrics(reg))
		if serr != nil {
			fatal(serr)
		}
		h, _, perr := st.PutArtifact(a)
		if perr != nil {
			fatal(perr)
		}
		if buildKey != nil {
			if rerr := st.RecordBuild(*buildKey, h); rerr != nil {
				fatal(rerr)
			}
		}
		fmt.Printf("store: %s -> %s\n", h, dir)
	}
	shutdown()
}

// formatVersion maps the -format flag to an artifact encoding version.
// The encoding is a property of serialization only: the in-memory
// artifact and everything derived from it are identical under either
// version.
func formatVersion(format string) (uint8, error) {
	switch format {
	case "wpp1":
		return iwpp.FormatV1, nil
	case "wpp2":
		return iwpp.FormatV2, nil
	}
	return 0, fmt.Errorf("unknown -format %q (want wpp1 or wpp2)", format)
}

// printArtifact renders the build summary; a chunked build also reports
// chunk geometry and pipeline utilization.
func printArtifact(a iwpp.Artifact, rep *iwpp.BuildReport, n int64, path string) {
	st := a.Stats()
	if st.ChunkSize == 0 {
		fmt.Printf("events: %d\nrules: %d\nrhs symbols: %d\nraw trace bytes: %d\nwpp bytes: %d (%.1fx)\n-> %s\n",
			st.Events, st.Rules, st.RHSSymbols, st.RawTraceBytes, n, float64(st.RawTraceBytes)/float64(n), path)
		return
	}
	fmt.Printf("events: %d\nchunks: %d (size %d)\nrules: %d\nrhs symbols: %d\npeak live symbols: %d\nwpc bytes: %d\n-> %s\n",
		st.Events, st.Chunks, st.ChunkSize, st.Rules, st.RHSSymbols, st.PeakLiveRHS, n, path)
	if rep != nil {
		fmt.Println(rep.String())
	}
}

// proveNumberings runs the exhaustive Ball–Larus proof on every function
// about to be traced: each numbering must assign every acyclic path a
// unique ID in a compact [0, NumPaths) range, and Regenerate must invert
// each ID. Functions with more paths than the proof limit are skipped
// with a notice (building from a raw trace carries no numberings at all,
// so there is nothing to prove on that input).
func proveNumberings(names []string, nums []*bl.Numbering) {
	proved, skipped := 0, 0
	for i, n := range nums {
		if n == nil {
			continue
		}
		if _, err := bl.Prove(n, 0); err != nil {
			if errors.Is(err, bl.ErrTooManyPaths) {
				fmt.Fprintf(os.Stderr, "wppbuild: bl: %s: proof skipped (%v)\n", names[i], err)
				skipped++
				continue
			}
			fatal(fmt.Errorf("numbering proof failed for %s: %w", names[i], err))
		}
		proved++
	}
	fmt.Printf("bl: proved %d/%d numbering(s) unique+compact (%d skipped)\n", proved, len(nums), skipped)
}

func fromSource(source string, args []int64, newBuilder collect.BuilderFactory) (iwpp.Artifact, *iwpp.BuildReport, *wlc.Program, error) {
	prog, err := wlc.Compile(source)
	if err != nil {
		return nil, nil, nil, err
	}
	t, err := collect.Run(prog, args, interp.Config{}, newBuilder)
	if err != nil {
		return nil, nil, nil, err
	}
	return t.Artifact, t.Report, prog, nil
}

// checkFeasibility is the -verify feasible-path cross-check: every
// distinct path ID recorded in the artifact must be classified feasible
// by the static dataflow analysis of the program just traced. The
// distinct events are the verified artifact's cost table, read without
// expanding the trace. An infeasible observed path means the analysis
// (or the trace) is wrong, so it is fatal.
func checkFeasibility(prog *wlc.Program, a iwpp.Artifact) {
	sets, err := dataflow.FeasiblePaths(prog, 0)
	if err != nil {
		fatal(fmt.Errorf("feasible-path analysis failed: %w", err))
	}
	// VerifyArtifact has bounded every event's function by the artifact's
	// table, which the build took from prog.
	distinct := a.DistinctEvents()
	for _, e := range distinct {
		if err := sets[e.Func()].CheckObserved(prog.Funcs[e.Func()].Name, []uint64{e.Path()}); err != nil {
			fatal(err)
		}
	}
	var feasible, total uint64
	skipped := 0
	for _, ps := range sets {
		feasible += ps.FeasibleCount
		total += ps.NumPaths
		if ps.Skipped {
			skipped++
		}
	}
	fmt.Printf("dataflow: %d distinct observed path(s) all feasible; %d/%d static path(s) feasible (%d function(s) over the enumeration limit)\n",
		len(distinct), feasible, total, skipped)
}

func fromTrace(path string, newBuilder collect.BuilderFactory) (iwpp.Artifact, *iwpp.BuildReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return nil, nil, err
	}
	// The trace carries no names: the builder names the functions it
	// sees f0..f<max ID>.
	b := newBuilder(nil, nil)
	batch := make([]trace.Event, 4096)
	for {
		n, err := r.ReadBatch(batch)
		b.AddBatch(batch[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Finish(0)
			return nil, nil, err
		}
	}
	a := b.Finish(b.Events()) // cost 1 per event
	return a, b.Report(), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wppbuild:", err)
	os.Exit(1)
}
