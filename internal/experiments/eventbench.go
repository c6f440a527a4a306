package experiments

// EventBench is the event-path trajectory: a machine-readable measurement
// of the whole builder ingestion chain — trace events in, sealed artifact
// out — comparing the per-event path (one Add per event, each a
// one-event batch with its own metric updates) against the batched path
// (AddBatch slices feeding Grammar.AppendBatch, metrics amortized per
// batch). The JSON keeps the "scalar" name for the per-event chain so
// old and new trajectory files still diff. Both chains run with
// BuildMetrics installed, the configuration every CLI deploys, and both
// run back-to-back in one process on the same captured event stream, so
// the speedup column is an honest same-machine ratio.
//
// The result also records the artifact's encoded size under both on-disk
// formats (WPP1/WPP2 monolithic, WPC1/WPC2 chunked); the v2 encoding is
// never larger by construction, and the committed trajectory file pins
// that claim per workload. cmd/wppbench serializes the result to
// BENCH_eventpath.json and renders an old/new comparison when a previous
// trajectory exists.

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/obsv"
	"repro/internal/trace"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// EventBenchSchema identifies the trajectory file format.
const EventBenchSchema = "wpp/eventbench/v1"

// eventBatchWidth mirrors the interpreter's emission buffer: the batched
// chain is measured with the slice width it sees in production.
const eventBatchWidth = 4096

// EventBenchChain is one construction strategy's per-event-vs-batch
// pair.
type EventBenchChain struct {
	// ScalarEventsPerSec is the best-of-reps throughput of per-event
	// Add ingestion with per-event metric updates.
	ScalarEventsPerSec float64 `json:"scalar_events_per_sec"`
	// BatchEventsPerSec is the same builder fed 4096-event AddBatch
	// slices, the interpreter's emission width.
	BatchEventsPerSec float64 `json:"batch_events_per_sec"`
	// Speedup is BatchEventsPerSec / ScalarEventsPerSec.
	Speedup float64 `json:"speedup"`
}

// EventBenchRow is one workload's measurements.
type EventBenchRow struct {
	Name   string `json:"name"`
	Events uint64 `json:"events"`
	// Mono is the monolithic single-grammar chain, the wppbuild default.
	Mono EventBenchChain `json:"mono"`
	// Chunked is the parallel chunked pipeline. Its per-event and batch
	// chains share the worker-side compressor, so the ratio isolates the
	// ingestion feed and is structurally smaller than the mono speedup.
	Chunked EventBenchChain `json:"chunked"`
	// Encoded artifact sizes under each format, whole file.
	WPP1Bytes int64 `json:"wpp1_bytes"`
	WPP2Bytes int64 `json:"wpp2_bytes"`
	WPC1Bytes int64 `json:"wpc1_bytes"`
	WPC2Bytes int64 `json:"wpc2_bytes"`
}

// EventBenchResult is the serialized trajectory point.
type EventBenchResult struct {
	Schema    string          `json:"schema"`
	Scale     string          `json:"scale"`
	ChunkSize uint64          `json:"chunk_size"`
	Workers   int             `json:"workers"`
	Reps      int             `json:"reps"`
	Go        string          `json:"go"`
	Workloads []EventBenchRow `json:"workloads"`
}

// feed drives the ingestion phase of one build — the event-path this
// trajectory measures. batched selects the path. Both chains replay the
// interpreter's emission discipline exactly: the per-event chain routes
// every event through a trace.SinkFunc trampoline and an interface
// dispatch (how the pre-batch pipeline delivered events), the batched
// chain through the interpreter's emission buffer (append per event,
// one AddBatch per 4096-event slice). Builder construction and sealing
// stay outside the timed region: they are identical work on both
// chains, and the throughput being pinned is the per-event delivery
// rate, not the one-time artifact sealing.
func feed(b iwpp.Builder, events []trace.Event, batched bool) {
	if batched {
		var sink trace.BatchSink = b
		ebuf := make([]trace.Event, 0, eventBatchWidth)
		for _, e := range events {
			ebuf = append(ebuf, e)
			if len(ebuf) == eventBatchWidth {
				sink.AddBatch(ebuf)
				ebuf = ebuf[:0]
			}
		}
		if len(ebuf) > 0 {
			sink.AddBatch(ebuf)
		}
	} else {
		var sink trace.Sink = trace.SinkFunc(func(e trace.Event) { b.Add(e) })
		for _, e := range events {
			sink.Add(e)
		}
	}
}

// encodedLen serializes the artifact at the given format version and
// returns the whole-file byte count.
func encodedLen(a iwpp.Artifact, version uint8) (int64, error) {
	iwpp.SetVersion(a, version)
	var buf bytes.Buffer
	return a.Encode(&buf)
}

// EventBench measures the builder ingestion chains on the named
// workloads at the given scale. chunkSize and workers shape the chunked
// pipeline; reps is best-of.
func EventBench(scale Scale, names []string, chunkSize uint64, workers, reps int) (*EventBenchResult, *Table, error) {
	if reps < 1 {
		reps = 1
	}
	res := &EventBenchResult{
		Schema:    EventBenchSchema,
		Scale:     scale.String(),
		ChunkSize: chunkSize,
		Workers:   workers,
		Reps:      reps,
		Go:        runtime.Version(),
	}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		art, err := runTraced(w, scale)
		if err != nil {
			return nil, nil, err
		}
		fnames := make([]string, len(art.prog.Funcs))
		for i, f := range art.prog.Funcs {
			fnames[i] = f.Name
		}
		row := EventBenchRow{Name: name, Events: uint64(len(art.events))}
		if len(art.events) == 0 {
			res.Workloads = append(res.Workloads, row)
			continue
		}
		instrs := art.stats.Instructions

		// Each timed build gets a fresh metrics registry — the deployed
		// configuration — so per-event instrumentation cost is charged to
		// the chain that pays it. The scalar and batched builds alternate
		// within each repetition so a load spike on a shared machine hits
		// both chains alike instead of skewing whichever phase it lands
		// on; each side's best-of is taken across the interleaved reps.
		// Only the feed is timed: construction and Finish are byte-for-byte
		// identical work on both chains, and folding their fixed cost into
		// the rate would just dilute the per-event ratio on short traces.
		measurePair := func(opts func() iwpp.BuildOptions) (float64, float64, iwpp.Artifact) {
			var a iwpp.Artifact
			var bestS, bestB time.Duration
			for i := 0; i < reps; i++ {
				bS := iwpp.New(fnames, art.nums, opts())
				dS := timeOnce(func() { feed(bS, art.events, false) })
				bS.Finish(instrs)
				bB := iwpp.New(fnames, art.nums, opts())
				dB := timeOnce(func() { feed(bB, art.events, true) })
				a = bB.Finish(instrs)
				if i == 0 || dS < bestS {
					bestS = dS
				}
				if i == 0 || dB < bestB {
					bestB = dB
				}
			}
			n := float64(len(art.events))
			return n / bestS.Seconds(), n / bestB.Seconds(), a
		}
		monoOpts := func() iwpp.BuildOptions {
			return iwpp.BuildOptions{Metrics: iwpp.NewBuildMetrics(obsv.NewRegistry())}
		}
		chunkOpts := func() iwpp.BuildOptions {
			return iwpp.BuildOptions{ChunkSize: chunkSize, Workers: workers, Metrics: iwpp.NewBuildMetrics(obsv.NewRegistry())}
		}

		var mono, chunked iwpp.Artifact
		row.Mono.ScalarEventsPerSec, row.Mono.BatchEventsPerSec, mono = measurePair(monoOpts)
		row.Chunked.ScalarEventsPerSec, row.Chunked.BatchEventsPerSec, chunked = measurePair(chunkOpts)
		if row.Mono.ScalarEventsPerSec > 0 {
			row.Mono.Speedup = row.Mono.BatchEventsPerSec / row.Mono.ScalarEventsPerSec
		}
		if row.Chunked.ScalarEventsPerSec > 0 {
			row.Chunked.Speedup = row.Chunked.BatchEventsPerSec / row.Chunked.ScalarEventsPerSec
		}

		for _, m := range []struct {
			a       iwpp.Artifact
			version uint8
			dst     *int64
		}{
			{mono, iwpp.FormatV1, &row.WPP1Bytes},
			{mono, iwpp.FormatV2, &row.WPP2Bytes},
			{chunked, iwpp.FormatV1, &row.WPC1Bytes},
			{chunked, iwpp.FormatV2, &row.WPC2Bytes},
		} {
			n, err := encodedLen(m.a, m.version)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: encoding v%d: %w", name, m.version, err)
			}
			*m.dst = n
		}
		res.Workloads = append(res.Workloads, row)
	}
	return res, res.Table(), nil
}

// Table renders the trajectory point for humans.
func (r *EventBenchResult) Table() *Table {
	tbl := &Table{
		ID:     "B1",
		Title:  fmt.Sprintf("event-path ingestion: scalar vs batched builder chain (scale=%s, chunk=%d, workers=%d, best of %d)", r.Scale, r.ChunkSize, r.Workers, r.Reps),
		Header: []string{"workload", "events", "mono scalar", "mono batch", "speedup", "chunk scalar", "chunk batch", "speedup", "wpp2/wpp1", "wpc2/wpc1"},
		Notes: []string{
			"throughput in Mev/s over the Add/AddBatch feed with BuildMetrics installed (the deployed configuration); builder construction and Finish, identical on both chains, are untimed",
			"chunked chains share the worker-side compressor; their ratio isolates the ingestion feed",
			"wpp2/wpp1 and wpc2/wpc1 are whole-file encoded size ratios; v2 is never larger by construction",
		},
	}
	for _, w := range r.Workloads {
		ratio := func(v2, v1 int64) string {
			if v1 <= 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.3f", float64(v2)/float64(v1))
		}
		tbl.Rows = append(tbl.Rows, []string{
			w.Name,
			fmt.Sprintf("%d", w.Events),
			fmt.Sprintf("%.2f", w.Mono.ScalarEventsPerSec/1e6),
			fmt.Sprintf("%.2f", w.Mono.BatchEventsPerSec/1e6),
			fmt.Sprintf("%.2fx", w.Mono.Speedup),
			fmt.Sprintf("%.2f", w.Chunked.ScalarEventsPerSec/1e6),
			fmt.Sprintf("%.2f", w.Chunked.BatchEventsPerSec/1e6),
			fmt.Sprintf("%.2fx", w.Chunked.Speedup),
			ratio(w.WPP2Bytes, w.WPP1Bytes),
			ratio(w.WPC2Bytes, w.WPC1Bytes),
		})
	}
	return tbl
}

// CompareEventBench renders an old-vs-new table from two trajectory
// points, matched by workload name. A nil old yields a baseline notice.
func CompareEventBench(old, cur *EventBenchResult) *Table {
	tbl := &Table{
		ID:     "B1Δ",
		Title:  "event-path throughput vs previous trajectory (batched chain, events/sec)",
		Header: []string{"workload", "mono old", "mono new", "delta", "chunk old", "chunk new", "delta"},
	}
	if old == nil {
		tbl.Notes = append(tbl.Notes, "no previous trajectory file; baseline recorded")
		return tbl
	}
	if old.Scale != cur.Scale || old.ChunkSize != cur.ChunkSize || old.Workers != cur.Workers {
		tbl.Notes = append(tbl.Notes, "configs differ; deltas are indicative only")
	}
	prev := map[string]EventBenchRow{}
	for _, w := range old.Workloads {
		prev[w.Name] = w
	}
	delta := func(o, n float64) string {
		if o <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
	}
	for _, w := range cur.Workloads {
		p, ok := prev[w.Name]
		if !ok {
			continue
		}
		tbl.Rows = append(tbl.Rows, []string{
			w.Name,
			fmt.Sprintf("%.2fM", p.Mono.BatchEventsPerSec/1e6),
			fmt.Sprintf("%.2fM", w.Mono.BatchEventsPerSec/1e6),
			delta(p.Mono.BatchEventsPerSec, w.Mono.BatchEventsPerSec),
			fmt.Sprintf("%.2fM", p.Chunked.BatchEventsPerSec/1e6),
			fmt.Sprintf("%.2fM", w.Chunked.BatchEventsPerSec/1e6),
			delta(p.Chunked.BatchEventsPerSec, w.Chunked.BatchEventsPerSec),
		})
	}
	return tbl
}
