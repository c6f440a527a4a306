package experiments

// EventBench is the event-path trajectory: a machine-readable measurement
// of the whole builder ingestion chain — trace events in, sealed artifact
// out — comparing the per-event path (one Add per event through a sink
// trampoline) against the batched path (AddBatch slices, the
// interpreter's emission). Both fill the same batch buffers, which the
// builder's workers feed to Grammar.AppendBatch. The JSON keeps the
// "scalar" name for the per-event chain so old and new trajectory files
// still diff. Both chains run with
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

	"repro/internal/obsv"
	"repro/internal/trace"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

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
	// Chunked is the chunked build on the configured worker pool. Like
	// Mono, its per-event and batch chains share the worker-side
	// compressor, so the ratio isolates the ingestion feed.
	Chunked EventBenchChain `json:"chunked"`
	// Encoded artifact sizes under each format, whole file.
	WPP1Bytes int64 `json:"wpp1_bytes"`
	WPP2Bytes int64 `json:"wpp2_bytes"`
	WPC1Bytes int64 `json:"wpc1_bytes"`
	WPC2Bytes int64 `json:"wpc2_bytes"`
}

// EventLayout is table B1 and the BENCH_eventpath.json trajectory.
var EventLayout = Layout[EventBenchRow]{
	Schema: "wpp/eventbench/v2",
	ID:     "B1",
	Title: func(t *Trajectory[EventBenchRow]) string {
		c := t.Config
		return fmt.Sprintf("event-path ingestion: scalar vs batched builder chain (scale=%s, chunk=%s, workers=%s, best of %s)", c["scale"], c["chunk"], c["workers"], c["reps"])
	},
	Notes: func(*Trajectory[EventBenchRow]) []string {
		return []string{
			"throughput in Mev/s from the first Add/AddBatch to Finish's return, with BuildMetrics installed (the deployed configuration); builder construction is untimed",
			"both chains of a strategy share the worker-side compressor, so their ratio isolates the ingestion feed",
			"wpp2/wpp1 and wpc2/wpc1 are whole-file encoded size ratios; v2 is never larger by construction",
		}
	},
	Columns: []Column[EventBenchRow]{
		text("workload", func(r EventBenchRow) string { return r.Name }),
		num("events", "%.0f", func(r EventBenchRow) float64 { return float64(r.Events) }),
		num("mono scalar", "%.2f", func(r EventBenchRow) float64 { return r.Mono.ScalarEventsPerSec / 1e6 }),
		tracked("mono batch", "%.2f", func(r EventBenchRow) float64 { return r.Mono.BatchEventsPerSec / 1e6 }),
		num("speedup", "%.2fx", func(r EventBenchRow) float64 { return r.Mono.Speedup }),
		num("chunk scalar", "%.2f", func(r EventBenchRow) float64 { return r.Chunked.ScalarEventsPerSec / 1e6 }),
		tracked("chunk batch", "%.2f", func(r EventBenchRow) float64 { return r.Chunked.BatchEventsPerSec / 1e6 }),
		num("speedup", "%.2fx", func(r EventBenchRow) float64 { return r.Chunked.Speedup }),
		text("wpp2/wpp1", func(r EventBenchRow) string { return sizeRatio(r.WPP2Bytes, r.WPP1Bytes) }),
		text("wpc2/wpc1", func(r EventBenchRow) string { return sizeRatio(r.WPC2Bytes, r.WPC1Bytes) }),
	},
	Key: func(r EventBenchRow) string { return r.Name },
}

// sizeRatio prints v2/v1, or n/a for an empty v1.
func sizeRatio(v2, v1 int64) string {
	if v1 <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", float64(v2)/float64(v1))
}

// feed drives the ingestion phase of one build — the event-path this
// trajectory measures. batched selects the path. Both chains replay the
// interpreter's emission discipline exactly: the per-event chain routes
// every event through a trace.SinkFunc trampoline and an interface
// dispatch (how the pre-batch pipeline delivered events), the batched
// chain through the interpreter's emission buffer (append per event,
// one AddBatch per 4096-event slice). The timed region is the feed plus
// Finish, since compression runs on the builder's workers and a feed
// may return before they are done.
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
func EventBench(scale Scale, names []string, chunkSize uint64, workers, reps int) (*Trajectory[EventBenchRow], error) {
	reps = max(reps, 1)
	res := EventLayout.Start(map[string]string{
		"scale": scale.String(), "chunk": fmt.Sprint(chunkSize), "workers": fmt.Sprint(workers), "reps": fmt.Sprint(reps),
	})
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		art, err := collectWorkload(w, scale)
		if err != nil {
			return nil, err
		}
		row := EventBenchRow{Name: name, Events: uint64(len(art.Events))}
		if len(art.Events) == 0 {
			res.Rows = append(res.Rows, row)
			continue
		}
		instrs := art.Stats.Instructions

		// Each timed build gets a fresh metrics registry — the deployed
		// configuration — so per-event instrumentation cost is charged to
		// the chain that pays it. The scalar and batched builds alternate
		// within each repetition so a load spike on a shared machine hits
		// both chains alike instead of skewing whichever phase it lands
		// on. Each chain is timed from its first event to Finish's
		// return: the builder compresses on worker goroutines, so a feed
		// returns once its batches are queued, and only Finish says the
		// grammar is built. Construction stays untimed.
		measurePair := func(opts func() iwpp.BuildOptions) (float64, float64, iwpp.Artifact) {
			var b iwpp.Builder
			var a iwpp.Artifact
			d, _ := bestOf(reps, // no step returns an error
				func() error { b = iwpp.New(art.Names, art.Numberings, opts()); return nil },
				func() error { feed(b, art.Events, false); b.Finish(instrs); return nil },
				func() error { b = iwpp.New(art.Names, art.Numberings, opts()); return nil },
				func() error { feed(b, art.Events, true); a = b.Finish(instrs); return nil },
			)
			n := float64(len(art.Events))
			return n / d[1].Seconds(), n / d[3].Seconds(), a
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
				return nil, fmt.Errorf("%s: encoding v%d: %w", name, m.version, err)
			}
			*m.dst = n
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
