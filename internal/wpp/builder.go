package wpp

import (
	"io"
	"time"

	"repro/internal/bl"
	"repro/internal/engine"
	"repro/internal/sequitur"
	"repro/internal/trace"
)

// Builder is the unified front-end of WPP construction: a trace.Sink
// that compresses the event stream online and seals it into an
// Artifact. Both construction strategies implement it — the monolithic
// single-grammar builder and the parallel chunked pipeline — so callers
// select a strategy with BuildOptions instead of wiring to a concrete
// type.
type Builder interface {
	trace.BatchSink
	// Events reports the number of events consumed so far.
	Events() uint64
	// Finish seals the artifact. instructions is the total executed
	// instruction count. The builder cannot be used afterwards.
	Finish(instructions uint64) Artifact
	// Report returns the build summary; nil before Finish.
	Report() *BuildReport
}

// Artifact is a sealed whole program path, monolithic or chunked: the
// common analysis and persistence surface over *WPP and *ChunkedWPP.
// Decode produces one from any of the four encodings, and
// engine.NewPositions answers positional queries on any of them.
// Callers needing strategy-specific API (Grammar, Chunks) type-assert
// to the concrete type.
type Artifact interface {
	// Source exposes the chunk grammars to the analyses (a monolithic
	// artifact is one chunk).
	engine.Source
	// Verify checks the artifact's internal structural consistency.
	Verify() error
	// VerifyParallel is Verify with its per-chunk checks on `workers`
	// goroutines (<=0 means GOMAXPROCS).
	VerifyParallel(workers int) error
	// Stats summarizes the artifact's size.
	Stats() Stats
	// Encode writes the artifact in the encoding its Version selects and
	// reports the bytes written.
	Encode(io.Writer) (int64, error)
	// NumEvents is the trace length (number of acyclic path events).
	NumEvents() uint64
	// TotalInstructions is the executed IR instruction count.
	TotalInstructions() uint64
	// FuncTable lists the traced functions, indexed by function ID.
	FuncTable() []FuncInfo
	// DistinctPaths reports how many distinct (function, path) pairs
	// were executed.
	DistinctPaths() int
	// PathCost returns the instruction cost of one event's acyclic
	// path; unknown events cost 0.
	PathCost(trace.Event) uint64
	// Walk yields the full event trace in order, stopping early if
	// yield returns false.
	Walk(yield func(trace.Event) bool)
	// VerifyArtifact deep-checks the artifact beyond Verify's
	// structural pass (SEQUITUR invariants, path-ID bounds).
	VerifyArtifact() (VerifyReport, error)
}

// BuildOptions selects and tunes the construction strategy.
type BuildOptions struct {
	// ChunkSize selects the strategy: 0 builds one monolithic grammar;
	// positive seals a chunk grammar every ChunkSize events via the
	// parallel pipeline.
	ChunkSize uint64
	// Workers is the parallel pipeline's pool size (<=0 means
	// GOMAXPROCS). Ignored for monolithic builds, which are inherently
	// sequential. The artifact is byte-identical at every worker count.
	Workers int
	// Metrics installs observability hooks on the build; nil disables
	// instrumentation. The artifact is identical either way.
	Metrics *BuildMetrics
}

// New returns a Builder for a program whose functions have the given
// Ball–Larus numberings (indexed by function ID), constructing with the
// strategy opts selects.
func New(names []string, nums []*bl.Numbering, opts BuildOptions) Builder {
	if opts.ChunkSize == 0 {
		b := NewMonoBuilder(names, nums)
		b.SetMetrics(opts.Metrics)
		return &monoHandle{b: b}
	}
	return &chunkedHandle{
		b: NewParallelChunkedBuilder(names, nums, opts.ChunkSize, ParallelOptions{
			Workers: opts.Workers,
			Metrics: opts.Metrics,
		}),
	}
}

// LiveSnapshotter is implemented by builders that can produce a
// point-in-time queryable artifact mid-stream without sealing. The
// monolithic strategy supports it (one grammar, snapshot on demand); the
// parallel chunked strategy does not, because chunks are in flight on
// worker goroutines until Finish. Callers type-assert and fall back to
// query-after-seal when the assertion fails.
type LiveSnapshotter interface {
	SnapshotWPP() *WPP
}

// monoHandle adapts MonoBuilder to the Builder interface.
type monoHandle struct {
	b      *MonoBuilder
	start  time.Time
	report *BuildReport
}

func (h *monoHandle) Add(e trace.Event) {
	if h.start.IsZero() {
		h.start = time.Now()
	}
	h.b.Add(e)
}

func (h *monoHandle) AddBatch(es []trace.Event) {
	if h.start.IsZero() {
		h.start = time.Now()
	}
	h.b.AddBatch(es)
}

func (h *monoHandle) Events() uint64 { return h.b.Events() }

func (h *monoHandle) Finish(instructions uint64) Artifact {
	if h.start.IsZero() {
		h.start = time.Now()
	}
	w := h.b.Finish(instructions)
	r := BuildReport{
		Events:        w.Events,
		Chunks:        1,
		DistinctPaths: w.DistinctPaths(),
		Workers:       1,
		BytesIn:       rawTraceBytes([]*sequitur.Snapshot{w.Grammar}),
		BytesOut:      w.EncodedSize(),
		WallTime:      time.Since(h.start),
		WorkerBusy:    []float64{1},
	}
	if r.BytesOut > 0 {
		r.Ratio = float64(r.BytesIn) / float64(r.BytesOut)
	}
	h.report = &r
	return w
}

func (h *monoHandle) Report() *BuildReport { return h.report }

// SnapshotWPP implements LiveSnapshotter by delegating to the wrapped
// MonoBuilder.
func (h *monoHandle) SnapshotWPP() *WPP { return h.b.SnapshotWPP() }

// chunkedHandle adapts ParallelChunkedBuilder to the Builder interface.
type chunkedHandle struct {
	b        *ParallelChunkedBuilder
	finished bool
}

func (h *chunkedHandle) Add(e trace.Event) { h.b.Add(e) }

func (h *chunkedHandle) AddBatch(es []trace.Event) { h.b.AddBatch(es) }

func (h *chunkedHandle) Events() uint64 { return h.b.Events() }

func (h *chunkedHandle) Finish(instructions uint64) Artifact {
	c := h.b.Finish(instructions)
	h.finished = true
	return c
}

func (h *chunkedHandle) Report() *BuildReport {
	if !h.finished {
		return nil
	}
	r := h.b.Report()
	return &r
}

// NumEvents is the trace length; part of the Artifact interface (the
// Events field keeps its name for direct users).
func (w *WPP) NumEvents() uint64 { return w.Events }

// TotalInstructions is the executed instruction count; part of the
// Artifact interface.
func (w *WPP) TotalInstructions() uint64 { return w.Instructions }

// FuncTable lists the traced functions; part of the Artifact interface.
func (w *WPP) FuncTable() []FuncInfo { return w.Funcs }

// NumEvents is the trace length; part of the Artifact interface.
func (c *ChunkedWPP) NumEvents() uint64 { return c.Events }

// TotalInstructions is the executed instruction count; part of the
// Artifact interface.
func (c *ChunkedWPP) TotalInstructions() uint64 { return c.Instructions }

// FuncTable lists the traced functions; part of the Artifact interface.
func (c *ChunkedWPP) FuncTable() []FuncInfo { return c.Funcs }

// Interface conformance.
var (
	_ Builder         = (*monoHandle)(nil)
	_ Builder         = (*chunkedHandle)(nil)
	_ Artifact        = (*WPP)(nil)
	_ Artifact        = (*ChunkedWPP)(nil)
	_ LiveSnapshotter = (*monoHandle)(nil)
	_ LiveSnapshotter = (*MonoBuilder)(nil)
	_ engine.Source   = (*ArtifactView)(nil)
)

// SetVersion selects an artifact's on-disk encoding (FormatV1 or
// FormatV2). The encoding is a property of serialization only: the
// in-memory artifact and everything derived from it are identical under
// either version.
func SetVersion(a Artifact, v uint8) {
	switch t := a.(type) {
	case *WPP:
		t.Version = v
	case *ChunkedWPP:
		t.Version = v
	}
}
