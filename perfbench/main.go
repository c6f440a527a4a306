// Command perfbench is the repository benchmark. It drives one workload
// through the public functions of each pipeline layer from a single
// process, checks every answer, and prints one JSON result line.
//
//	perfbench --workload hot-query --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// wraps each layer call in a span and reports per-layer metrics instead.
// README.md describes the workloads, the metrics and how steady they are;
// run.py builds this command and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workDir  string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runFunc runs one workload and fills in its report.
type runFunc func(cfg config, dir string, tr *tracer) (*report, error)

var workloadFuncs = map[string]runFunc{
	"hot-query": runHotQuery,
	"collect":   runCollect,
	"ingest":    runIngest,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: hot-query, collect or ingest")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 25, "nominal length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.workDir, "work-dir", ".bench_build", "directory for temporary stores and span dumps")
	flag.Parse()
	cfg.trace = traceFlag == 1
	fn, ok := workloadFuncs[cfg.workload]
	if !ok || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, cfg.seconds, traceFlag)
		return 2
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep, err := fn(cfg, dir, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	res := result{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
	}
	if cfg.trace {
		res.Metrics = layerMetrics(rep, tr.summarize())
		if err := tr.dump(filepath.Join(cfg.workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	} else {
		res.Metrics = endToEndMetrics(rep)
	}
	printReport(os.Stderr, cfg, rep, res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d ops=%d retried=%d\n", cfg.workload, cfg.seed, cfg.seconds, traceFlag, len(rep.lat), rep.retried)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// report is what a workload measured.
type report struct {
	setup       []time.Duration // one per set-up repetition
	wall        time.Duration   // timed phase
	opTime      time.Duration   // summed latency of the timed ops, at reference speed
	wallOpTime  time.Duration   // the same as measured
	refs        []time.Duration // reference-kernel times of the timed phase
	clients     int             // concurrent clients issuing the ops
	events      uint64          // trace events completed in the timed phase
	lat         []time.Duration // unit-op latencies in the timed phase
	latOf       []string        // the program each latency belongs to
	tracedLat   time.Duration   // summed latency of traced ops (traced runs)
	untracedLat time.Duration   // summed latency of untraced ops (traced runs)
	attempted   int
	failed      int
	retried     int     // disturbed ops run again
	storedBytes uint64  // bytes of the artifacts the workload stores ...
	storedKev   float64 // ... per thousand events they hold
	peakRSSMB   float64
	mem         memDelta
	layers      map[string]metric // workload-specific per-layer values
}

// record adds one timed op: its time, its program, and the events it
// completed.
func (r *report) record(t opTime, prog string, events uint64) {
	r.lat = append(r.lat, t.scaled)
	r.latOf = append(r.latOf, prog)
	r.events += events
	r.opTime += t.scaled
	r.wallOpTime += t.wall
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

func endToEndMetrics(r *report) map[string]metric {
	lat := durationsMS(r.lat)
	sort.Float64s(lat)
	return map[string]metric{
		"setup_s":              {median(seconds(r.setup)), "s"},
		"throughput_mev_per_s": {float64(r.clients) * float64(r.events) / 1e6 / r.opTime.Seconds(), "Mev/s"},
		"op_p50_ms":            {quantile(lat, 0.50), "ms"},
		"op_p90_ms":            {quantile(lat, 0.90), "ms"},
		"peak_rss_mb":          {r.peakRSSMB, "MB"},
		"stored_bytes_per_kev": {float64(r.storedBytes) / r.storedKev, "B/kev"},
		"ok_pct":               {100 * float64(r.attempted-r.failed) / float64(r.attempted), "%"},
	}
}

func printReport(w *os.File, cfg config, r *report, res result) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v: %d ops (%d disturbed ops run again) in %.3fs, %d events, set-up reps %v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, len(r.lat), r.retried, r.wall.Seconds(), r.events, r.setup)
	byProg := map[string][]float64{}
	for i, d := range r.lat {
		byProg[r.latOf[i]] = append(byProg[r.latOf[i]], float64(d)/1e6)
	}
	for _, p := range sortedKeys(byProg) {
		fmt.Fprintf(w, "  op latency %-22s median %10.3f ms over %d ops\n", p, median(byProg[p]), len(byProg[p]))
	}
	fmt.Fprintf(w, "  reference kernel: median %.3f ms (nominal %.3f ms); as measured: %.4f Mev/s over %.3f s of op time\n",
		median(durationsMS(r.refs)), ms(refNominal), float64(r.clients)*float64(r.events)/1e6/r.wallOpTime.Seconds(), r.wallOpTime.Seconds())
	for _, n := range sortedKeys(res.Metrics) {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// durationsMS converts durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// quantile is the linear-interpolation quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}
