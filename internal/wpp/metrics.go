package wpp

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/obsv"
	"repro/internal/sequitur"
)

// BuildMetrics is the builder's instrumentation hook set. Any field may
// be nil — obsv metrics are nil-safe no-ops — and a nil *BuildMetrics
// disables instrumentation entirely; the builder treats it as a value
// with all-nil fields, so hot-path call sites need no conditionals and
// never allocate.
type BuildMetrics struct {
	// EventsIngested counts events handed to the workers, a batch at a
	// time (Add's partly filled batch is counted when it is flushed).
	EventsIngested *obsv.Counter
	// ChunksSealed counts chunks closed by the front-end.
	ChunksSealed *obsv.Counter
	// QueueDepth tracks the number of chunks waiting for a worker.
	QueueDepth *obsv.Gauge
	// PoolRecycles counts batch buffers taken from the free list with
	// capacity already allocated (a hit means steady-state reuse).
	PoolRecycles *obsv.Counter
	// WorkerBusyNS and WorkerIdleNS accumulate nanoseconds the pool's
	// workers spent compressing vs waiting for batches, summed over
	// workers.
	WorkerBusyNS *obsv.Counter
	WorkerIdleNS *obsv.Counter
	// ChunkCompress is the distribution of per-chunk compression time:
	// the time a worker spent appending the chunk's batches and sealing
	// it, not the wall time the chunk was open.
	ChunkCompress *obsv.Histogram
	// Grammar instruments the SEQUITUR grammars doing the compressing
	// (shared by all workers; counters sum, the table gauge tracks the
	// most recently active grammar).
	Grammar sequitur.Metrics
}

// NewBuildMetrics registers the standard pipeline metric names on r and
// returns the hook set. A nil registry yields a hook set of nil metrics —
// valid to install, and a no-op.
func NewBuildMetrics(r *obsv.Registry) *BuildMetrics {
	return &BuildMetrics{
		EventsIngested: r.Counter("wpp_events_ingested_total"),
		ChunksSealed:   r.Counter("wpp_chunks_sealed_total"),
		QueueDepth:     r.Gauge("wpp_queue_depth"),
		PoolRecycles:   r.Counter("wpp_pool_recycle_total"),
		WorkerBusyNS:   r.Counter("wpp_worker_busy_ns_total"),
		WorkerIdleNS:   r.Counter("wpp_worker_idle_ns_total"),
		ChunkCompress:  r.Histogram("wpp_chunk_compress_seconds", nil),
		Grammar: sequitur.Metrics{
			Terminals:    r.Counter("sequitur_terminals_total"),
			RulesCreated: r.Counter("sequitur_rules_created_total"),
			RulesReused:  r.Counter("sequitur_rules_reused_total"),
			DigramTable:  r.Gauge("sequitur_digram_table_size"),
		},
	}
}

// orNoop lets builders hold a value so instrumentation sites can call
// through nil fields without checking the pointer first.
func (m *BuildMetrics) orNoop() BuildMetrics {
	if m == nil {
		return BuildMetrics{}
	}
	return *m
}

// BuildReport summarizes a finished build: what went in, what came out,
// and how busy the pipeline was. It is valid after Finish.
type BuildReport struct {
	// Events is the number of path events ingested; Chunks the number of
	// chunk grammars produced; ChunkSize the configured chunk size.
	Events    uint64
	Chunks    int
	ChunkSize uint64
	// DistinctPaths is the number of distinct (function, path) pairs.
	DistinctPaths int
	// Workers is the pool size the build ran with.
	Workers int
	// BytesIn is the varint-encoded size of the uncompressed trace the
	// artifact replaces; BytesOut the encoded artifact size; Ratio is
	// BytesIn/BytesOut.
	BytesIn  int64
	BytesOut int64
	Ratio    float64
	// WallTime is construction start to Finish return.
	WallTime time.Duration
	// WorkerBusy is each worker's fraction of WallTime spent compressing
	// (indexed by worker; len == Workers). Low fractions at high worker
	// counts mean the single-threaded producer is the bottleneck.
	WorkerBusy []float64
}

// String renders the report as a compact multi-line summary.
func (r BuildReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "build report:\n")
	fmt.Fprintf(&b, "  events ingested: %d (%d distinct paths)\n", r.Events, r.DistinctPaths)
	fmt.Fprintf(&b, "  chunks:          %d (size %d)\n", r.Chunks, r.ChunkSize)
	fmt.Fprintf(&b, "  bytes in/out:    %d / %d (ratio %.1fx)\n", r.BytesIn, r.BytesOut, r.Ratio)
	fmt.Fprintf(&b, "  wall time:       %s\n", r.WallTime.Round(time.Microsecond))
	busy := make([]string, len(r.WorkerBusy))
	for i, f := range r.WorkerBusy {
		busy[i] = fmt.Sprintf("%.0f%%", f*100)
	}
	fmt.Fprintf(&b, "  workers:         %d busy [%s]", r.Workers, strings.Join(busy, " "))
	return b.String()
}
