package wpp

import (
	"io"

	"repro/internal/bl"
	"repro/internal/engine"
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
// to the concrete type. *ArtifactView offers the same checks over an
// encoded artifact without decoding it whole.
type Artifact interface {
	// Source exposes the chunk grammars to the analyses (a monolithic
	// artifact is one chunk).
	engine.Source
	// Verify is the one artifact check, run in grammar time with its
	// per-chunk work on `workers` goroutines (<=0 means GOMAXPROCS):
	// well-formed SEQUITUR grammars (reachability, rule utility), chunk
	// geometry, the event total, and a cost table holding exactly the
	// events the grammars yield, each with an in-range path ID.
	Verify(workers int) error
	// VerifyArtifact is Verify plus the duplicate-digram count against
	// SEQUITUR's seam slack, the one costly measure, and reports what
	// was checked.
	VerifyArtifact(workers int) (VerifyReport, error)
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
	// DistinctEvents lists those pairs in ascending order: the cost
	// table's events, which Verify holds to the events the grammars
	// yield.
	DistinctEvents() []trace.Event
	// PathCost returns the instruction cost of one event's acyclic
	// path; unknown events cost 0.
	PathCost(trace.Event) uint64
	// Walk yields the full event trace in order, stopping early if
	// yield returns false.
	Walk(yield func(trace.Event) bool)
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
// strategy opts selects. It is the one way to make a builder. Given no
// names, the builder names the functions it saw f0..f<max ID> when it
// seals or snapshots; nil numberings make every path cost 1.
func New(names []string, nums []*bl.Numbering, opts BuildOptions) Builder {
	if opts.ChunkSize == 0 {
		return newMonoBuilder(names, nums, opts.Metrics)
	}
	return newParallelChunkedBuilder(names, nums, opts)
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
	_ Builder         = (*MonoBuilder)(nil)
	_ Builder         = (*ParallelChunkedBuilder)(nil)
	_ Artifact        = (*WPP)(nil)
	_ Artifact        = (*ChunkedWPP)(nil)
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
