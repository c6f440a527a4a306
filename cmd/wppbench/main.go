// wppbench regenerates the tables and figures of the whole-program-paths
// evaluation (see DESIGN.md for the paper mapping).
//
// Usage:
//
//	wppbench [-exp all|e1..e6,a1..a6,p1,f1] [-scale small|medium|large] [-reps 3]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/hotpath"
	"repro/internal/obsv"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment IDs (e1..e6,a1..a6,p1,f1) or 'all'")
	scaleFlag := flag.String("scale", "medium", "workload scale (small|medium|large)")
	verify := flag.Bool("verify", false, "deep-verify every workload's artifacts (monolithic and chunked) before running experiments")
	reps := flag.Int("reps", 3, "repetitions for timing experiments (best-of)")
	workers := flag.Int("workers", 0, "worker count for the p1 parallel-scaling experiment (0 = all cores)")
	seqbench := flag.String("seqbench", "", "measure raw SEQUITUR throughput and record the trajectory in this file (e.g. BENCH_sequitur.json), printing a comparison with the run it already holds")
	eventbench := flag.String("eventbench", "", "measure the per-event vs batched builder ingestion chains and record the trajectory in this file (e.g. BENCH_eventpath.json), printing a comparison with the run it already holds")
	storebench := flag.String("storebench", "", "measure content-addressed store resolve latency and repeat-run dedup across small and medium scales and record the trajectory in this file (e.g. BENCH_store.json), printing a comparison with the run it already holds")
	openbench := flag.String("openbench", "", "measure lazy view opens against eager decode (time to first result, hot query, allocations) and record the trajectory in this file (e.g. BENCH_openpath.json), printing a comparison with the run it already holds")
	flatebench := flag.String("flatebench", "", "compare the v2 varint codecs against gzip'd v1 encodings on this golden-corpus directory (size and decode speed); prints a table, writes nothing")
	golden := flag.String("golden", "", "decode and verify every artifact in this directory before running anything else; exit nonzero on the first failure")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. :6060)")
	progress := flag.Duration("progress", 0, "emit a progress line to stderr at this interval (e.g. 1s)")
	flag.Parse()

	// The debug server's main value here is live pprof while a long
	// experiment grid runs; the registry tracks grid progress.
	reg := obsv.NewRegistry()
	expDone := reg.Counter("wppbench_experiments_done_total")
	shutdown, err := obsv.Setup(reg, *debugAddr, "wppbench", *progress, os.Stderr)
	if err != nil {
		fatal(err)
	}
	defer shutdown()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	want := map[string]bool{}
	if *expFlag == "all" {
		for _, id := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "a1", "a2", "a3", "a4", "a5", "a6", "p1", "f1"} {
			want[id] = true
		}
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToLower(strings.TrimSpace(id))] = true
		}
	}
	fmt.Printf("whole-program-paths benchmark harness (scale=%s)\n\n", scale)

	if *golden != "" {
		// A golden corpus that stops decoding means the codec broke
		// compatibility; nothing measured afterwards could be trusted.
		if err := checkGolden(*golden); err != nil {
			fatal(err)
		}
	}

	show := func(tbl *experiments.Table, err error) {
		if err != nil {
			fatal(err)
		}
		expDone.Inc()
		fmt.Println(tbl.String())
	}
	if *verify {
		// Deep-check the artifacts the experiments are about to measure;
		// a failed invariant makes every downstream number meaningless.
		tbl, err := experiments.VerifyAll(scale, workloads.Names())
		show(tbl, err)
	}
	if want["e1"] {
		_, tbl, err := experiments.E1(scale)
		show(tbl, err)
	}
	if want["e2"] {
		_, tbl, err := experiments.E2(scale)
		show(tbl, err)
	}
	if want["e3"] {
		_, tbl, err := experiments.E3(scale, *reps)
		show(tbl, err)
	}
	if want["e4"] {
		_, tbl, err := experiments.E4(scale, []string{"compress", "expr", "sim"}, 8)
		show(tbl, err)
	}
	if want["e5"] {
		// The paper sweeps minimum length and hotness threshold; lengths
		// beyond 8 add analysis cost quadratically, so the default grid
		// stops there (pass -exp e5 -scale small for wider sweeps).
		_, tbl, err := experiments.E5(scale, []int{2, 4, 8}, []float64{0.001, 0.005, 0.01})
		show(tbl, err)
	}
	if want["e6"] {
		_, tbl, err := experiments.E6(scale, hotpath.Options{MinLen: 4, MaxLen: 16, Threshold: 0.005}, *reps)
		show(tbl, err)
	}
	if want["a1"] {
		_, tbl, err := experiments.A1(scale, workloads.Names())
		show(tbl, err)
	}
	if want["a2"] {
		_, tbl, err := experiments.A2(scale, []string{"compress", "lexer", "expr", "sort"})
		show(tbl, err)
	}
	if want["a3"] {
		_, tbl, err := experiments.A3(scale, []string{"compress", "expr", "sim"}, []uint64{1000, 10000, 100000})
		show(tbl, err)
	}
	if want["a4"] {
		_, tbl, err := experiments.A4(scale, nil)
		show(tbl, err)
	}
	if want["a5"] {
		_, tbl, err := experiments.A5(workloads.Names())
		show(tbl, err)
	}
	if want["a6"] {
		_, tbl, err := experiments.A6(scale, workloads.Names())
		show(tbl, err)
	}
	if want["p1"] {
		_, tbl, err := experiments.P1(scale, []string{"compress", "expr", "sim", "sort"}, 4096, *workers, *reps)
		show(tbl, err)
	}
	if want["f1"] {
		_, tbl, err := experiments.F1(scale)
		show(tbl, err)
	}
	// -workers 0 means all cores for p1; the event and store benches
	// record two workers instead.
	benchWorkers := *workers
	if benchWorkers <= 0 {
		benchWorkers = 2
	}
	record := func(err error) {
		if err != nil {
			fatal(err)
		}
		expDone.Inc()
	}
	if *seqbench != "" {
		record(experiments.SeqLayout.Record(os.Stdout, *seqbench, func() (*experiments.Trajectory[experiments.SeqBenchRow], error) {
			return experiments.SeqBench(scale, workloads.Names(), 4096, *reps)
		}))
	}
	if *eventbench != "" {
		record(experiments.EventLayout.Record(os.Stdout, *eventbench, func() (*experiments.Trajectory[experiments.EventBenchRow], error) {
			return experiments.EventBench(scale, workloads.Names(), 4096, benchWorkers, *reps)
		}))
	}
	if *storebench != "" {
		// The scales are fixed at small and medium: the dedup claim the
		// trajectory pins is per tuple, so the two scales double the grid
		// rather than parameterize it.
		record(experiments.StoreLayout.Record(os.Stdout, *storebench, func() (*experiments.Trajectory[experiments.StoreBenchRow], error) {
			return experiments.StoreBench([]experiments.Scale{experiments.Small, experiments.Medium}, workloads.Names(), 4096, benchWorkers, *reps)
		}))
	}
	if *openbench != "" {
		record(experiments.OpenLayout.Record(os.Stdout, *openbench, func() (*experiments.Trajectory[experiments.OpenBenchRow], error) {
			return experiments.OpenBench(scale, workloads.Names(), 4096, *reps)
		}))
	}
	if *flatebench != "" {
		res, err := experiments.FlateBench(*flatebench, *reps)
		if err != nil {
			fatal(err)
		}
		show(experiments.FlateLayout.Table(res), nil)
	}
}

// checkGolden decodes and verifies every artifact under dir — the
// committed golden corpus spans all four formats, so a failure here
// means the decoder regressed on bytes it must read forever. Each
// artifact is verified both as a lazy mmap-backed view and fully
// decoded: the two VerifyArtifact reports must be equal, and the
// decoded artifact must re-encode to the file's exact bytes.
func checkGolden(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || !isArtifactName(e.Name()) {
			continue
		}
		path := dir + "/" + e.Name()
		v, err := iwpp.OpenViewFile(path, nil)
		if err != nil {
			return fmt.Errorf("golden %s: view open: %w", path, err)
		}
		format := v.Format()
		viewRep, err := v.VerifyArtifact(0)
		v.Close()
		if err != nil {
			return fmt.Errorf("golden %s (%s): view verify: %w", path, format, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		a, err := iwpp.Decode(data)
		if err != nil {
			return fmt.Errorf("golden %s: decode: %w", path, err)
		}
		rep, err := a.VerifyArtifact(0)
		if err != nil {
			return fmt.Errorf("golden %s (%s): verify: %w", path, format, err)
		}
		if rep != viewRep {
			return fmt.Errorf("golden %s (%s): view reports %+v, decoded artifact %+v", path, format, viewRep, rep)
		}
		var buf bytes.Buffer
		if _, err := a.Encode(&buf); err != nil {
			return fmt.Errorf("golden %s (%s): re-encode: %w", path, format, err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			return fmt.Errorf("golden %s (%s): decode then re-encode does not reproduce the file bytes", path, format)
		}
		fmt.Printf("golden %s: %s, %d events ok\n", e.Name(), format, a.NumEvents())
		n++
	}
	if n == 0 {
		return fmt.Errorf("golden directory %s holds no artifacts", dir)
	}
	fmt.Println()
	return nil
}

// isArtifactName matches the extensions the golden corpus uses, one per
// format, plus the legacy .wpp suffix.
func isArtifactName(name string) bool {
	for _, ext := range []string{".wpp", ".wpp1", ".wpp2", ".wpc1", ".wpc2"} {
		if strings.HasSuffix(name, ext) {
			return true
		}
	}
	return false
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wppbench:", err)
	os.Exit(1)
}
