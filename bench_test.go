package repro_test

// Benchmarks regenerating the paper's tables and figures (one bench per
// experiment; see DESIGN.md for the mapping), plus microbenchmarks of the
// pipeline stages. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benches execute at Small scale so `go test -bench` stays
// fast; cmd/wppbench runs the same experiments at Medium/Large with full
// table output.

import (
	"testing"

	"repro/internal/calltree"
	"repro/internal/experiments"
	"repro/internal/hotpath"
	"repro/internal/interp"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// BenchmarkE1Characteristics regenerates Table 1 (workload
// characteristics).
func BenchmarkE1Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E1(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkE2Compression regenerates the trace/WPP/DEFLATE size
// comparison.
func BenchmarkE2Compression(b *testing.B) {
	var factor float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E2(experiments.Small)
		if err != nil {
			b.Fatal(err)
		}
		factor = 0
		for _, r := range rows {
			factor += r.FactorWPP
		}
		factor /= float64(len(rows))
	}
	b.ReportMetric(factor, "avg-raw/wpp")
}

// BenchmarkE3Overhead regenerates the collection-overhead table.
func BenchmarkE3Overhead(b *testing.B) {
	var over float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E3(experiments.Small, 1)
		if err != nil {
			b.Fatal(err)
		}
		over = 0
		for _, r := range rows {
			over += r.WPPOverhead
		}
		over /= float64(len(rows))
	}
	b.ReportMetric(over, "avg-wpp/plain")
}

// BenchmarkE4Growth regenerates the WPP-size-vs-trace-length figure.
func BenchmarkE4Growth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, _, err := experiments.E4(experiments.Small, []string{"compress", "expr"}, 6)
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 2 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkE5HotSubpaths regenerates the hot-subpath tables.
func BenchmarkE5HotSubpaths(b *testing.B) {
	var count int
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E5(experiments.Small, []int{2, 4}, []float64{0.01})
		if err != nil {
			b.Fatal(err)
		}
		count = 0
		for _, r := range rows {
			count += r.Count
		}
	}
	b.ReportMetric(float64(count), "hot-subpaths")
}

// BenchmarkE6AnalysisTime regenerates the compressed-vs-scan analysis
// timing.
func BenchmarkE6AnalysisTime(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.E6(experiments.Small, hotpath.Options{MinLen: 2, MaxLen: 8, Threshold: 0.02}, 1)
		if err != nil {
			b.Fatal(err)
		}
		speedup = 0
		for _, r := range rows {
			if !r.Agree {
				b.Fatal("analyses disagree")
			}
			speedup += r.Speedup
		}
		speedup /= float64(len(rows))
	}
	b.ReportMetric(speedup, "avg-scan/grammar")
}

// BenchmarkA1Alphabet regenerates the block-vs-path alphabet ablation.
func BenchmarkA1Alphabet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.A1(experiments.Small, []string{"compress", "matrix"})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkA2SequiturVariants regenerates the rule-utility ablation.
func BenchmarkA2SequiturVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.A2(experiments.Small, []string{"expr"})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 1 {
			b.Fatal("missing rows")
		}
	}
}

// --- microbenchmarks of the pipeline stages ---

func compileWorkload(b *testing.B, name string) (*wlc.Program, int64) {
	b.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	p, err := wlc.Compile(w.Source)
	if err != nil {
		b.Fatal(err)
	}
	return p, w.Small
}

func BenchmarkInterpreterPlain(b *testing.B) {
	p, arg := compileWorkload(b, "expr")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := interp.New(p, interp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run("main", arg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpreterPathTrace(b *testing.B) {
	p, arg := compileWorkload(b, "expr")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var n uint64
		m, err := interp.New(p, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(trace.Event) { n++ })})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run("main", arg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWPPBuildOnline(b *testing.B) {
	p, arg := compileWorkload(b, "expr")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := sequitur.New()
		m, err := interp.New(p, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) { g.Append(uint64(e)) })})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run("main", arg); err != nil {
			b.Fatal(err)
		}
	}
}

func buildWorkloadWPP(b *testing.B, name string) *iwpp.WPP {
	b.Helper()
	w, err := experiments.WPPForWorkload(name, experiments.Small)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

func BenchmarkHotpathFindGrammar(b *testing.B) {
	w := buildWorkloadWPP(b, "expr")
	opts := hotpath.Options{MinLen: 2, MaxLen: 8, Threshold: 0.02}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hotpath.Find(w, opts, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotpathFindScan(b *testing.B) {
	w := buildWorkloadWPP(b, "expr")
	opts := hotpath.Options{MinLen: 2, MaxLen: 8, Threshold: 0.02}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hotpath.FindByScan(w, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA3Chunking regenerates the bounded-memory chunking ablation.
func BenchmarkA3Chunking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.A3(experiments.Small, []string{"compress"}, []uint64{1000, 10000})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkA4OptimizedBuilds regenerates the plain-vs-optimized ablation.
func BenchmarkA4OptimizedBuilds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.A4(experiments.Small, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkA5ChordPlacement regenerates the spanning-tree placement
// ablation.
func BenchmarkA5ChordPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.A5(workloads.Names())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkA6WeightedChords regenerates the profile-guided placement
// ablation.
func BenchmarkA6WeightedChords(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.A6(experiments.Small, []string{"queens", "sim"})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkCallTreeReconstruction(b *testing.B) {
	w, err := workloads.ByName("queens")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := wlc.Compile(w.Source)
	if err != nil {
		b.Fatal(err)
	}
	var builder iwpp.Builder
	m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) { builder.Add(e) })})
	if err != nil {
		b.Fatal(err)
	}
	names := prog.FuncNames()
	builder = iwpp.New(names, m.Numberings(), iwpp.BuildOptions{})
	if _, err := m.Run("main", w.Small); err != nil {
		b.Fatal(err)
	}
	wp := builder.Finish(m.Stats().Instructions)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := calltree.Build(prog, m.Numberings(), wp, "main"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWPPEncode(b *testing.B) {
	w := buildWorkloadWPP(b, "compress")
	b.ResetTimer()
	b.ReportAllocs()
	var sink discard
	for i := 0; i < b.N; i++ {
		if _, err := w.Encode(&sink); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
