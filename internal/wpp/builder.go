package wpp

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bl"
	"repro/internal/engine"
	"repro/internal/sequitur"
	"repro/internal/trace"
)

// Builder is the front-end of WPP construction: a trace.Sink that
// compresses the event stream online and seals it into an Artifact.
// New returns one for either strategy — one monolithic grammar or a
// chunk grammar every ChunkSize events — so callers select a strategy
// with BuildOptions instead of wiring to a concrete type.
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
	// positive seals a chunk grammar every ChunkSize events.
	ChunkSize uint64
	// Workers is the number of goroutines compressing chunks (<=0 means
	// GOMAXPROCS). A monolithic build is one chunk and so runs on one
	// worker whatever this says. The artifact is byte-identical at every
	// worker count.
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
//
// Every build runs the same pipeline (see builder): a monolithic build
// is its case ChunkSize = ∞, one chunk on one worker. The builder's
// goroutines run until Finish, which every build must call, failed runs
// included.
func New(names []string, nums []*bl.Numbering, opts BuildOptions) Builder {
	workers := 1
	if opts.ChunkSize > 0 {
		workers = engine.Workers(opts.Workers)
	}
	b := &builder{
		chunkSize: opts.ChunkSize,
		funcs:     funcTable(names, nums),
		nums:      nums,
		jobs:      make(chan chunkJob, workers),
		// As many buffers as can be in flight: the batches of `workers`
		// waiting chunks, `workers` compressing and the open one.
		free:       make(chan []uint64, (2*workers+1)*queueLen(opts.ChunkSize)),
		snaps:      make(chan *sequitur.Snapshot),
		results:    make(chan chunkResult, workers),
		done:       make(chan struct{}),
		metrics:    opts.Metrics.orNoop(),
		start:      time.Now(),
		workerBusy: make([]int64, workers),
	}
	for i := range workers {
		b.wg.Add(1)
		go b.worker(i)
	}
	go b.collect()
	if b.chunkSize == 0 {
		// The one chunk of a monolithic build is open from the start, so
		// even an empty build seals (and snapshots) one grammar.
		b.openChunk()
	}
	return b
}

// LiveSnapshotter is implemented by the builder New returns: it produces
// a point-in-time queryable artifact mid-stream without sealing. Only a
// monolithic build has one grammar to snapshot; for a chunked build
// SnapshotWPP returns nil, and callers query after Finish instead.
type LiveSnapshotter interface {
	SnapshotWPP() *WPP
}

// batchEvents is the size of the builder's batch buffers: the
// interpreter's emission batch, so each batch it emits fills one buffer.
const batchEvents = 4096

// bufCap is the capacity of a batch buffer: batchEvents, or the chunk
// size when chunks are smaller, since a batch never spans two chunks.
func bufCap(chunkSize uint64) int {
	if chunkSize == 0 || chunkSize > batchEvents {
		return batchEvents
	}
	return int(chunkSize)
}

// queueLen is how many batches a chunk's queue holds. A chunked build
// queues a whole chunk (up to 256 batches), so the caller can hand a
// pre-captured stream to every worker at once instead of waiting for one
// chunk to compress; a monolithic build, whose one worker only keeps up
// with the caller, queues a few.
func queueLen(chunkSize uint64) int {
	if chunkSize == 0 {
		return 4
	}
	return int(min((chunkSize+batchEvents-1)/batchEvents, 256))
}

// builder is the one Builder. Its output is defined independently of
// the pool: chunk i is the SEQUITUR grammar of events
// [i·chunkSize, (i+1)·chunkSize) of the stream, each distinct event is
// priced once, and PeakLiveRHS is the largest chunk grammar's symbol
// count at seal time. SEQUITUR is a deterministic function of a chunk's
// events and results are reassembled by chunk index, so the artifact —
// Chunks, Stats and encoding — is byte-identical at every worker count
// and schedule. Path costs are derived from the sealed grammars at
// Finish, so an invalid event surfaces there (or at SnapshotWPP).
//
// The Add/AddBatch front-end is single-threaded (it is an interp Sink,
// called from one goroutine). It only copies events into a pooled batch
// buffer of at most batchEvents — the interpreter reuses its emission
// buffer, so the events must be copied — and sends a full batch on the
// open chunk's queue to the worker that owns the chunk, which appends it
// to that chunk's grammar. A slow compressor exerts backpressure on the
// producer. Queued events are bounded by
// O(workers · chunkSize): at most `workers` chunks waiting for a worker
// and `workers` being compressed, one of them open; a monolithic build
// queues at most queueLen(0) batches.
type builder struct {
	chunkSize uint64 // 0: the whole stream is one chunk
	funcs     []FuncInfo
	nums      []*bl.Numbering
	events    uint64

	// Owned by the Add goroutine: the batch being filled, the events it
	// may take before it is flushed, the open chunk's queue (nil between
	// chunks) and the events flushed into that chunk.
	batch   []uint64
	limit   int
	open    chan []uint64
	filled  uint64
	nextIdx int

	jobs    chan chunkJob
	free    chan []uint64           // recycled batch buffers
	snaps   chan *sequitur.Snapshot // answers a live snapshot request
	results chan chunkResult
	done    chan struct{} // closed when the collector has drained results
	wg      sync.WaitGroup

	// Collector-owned state, safe to read only after <-done.
	chunks  []*sequitur.Snapshot
	peakRHS int

	metrics BuildMetrics
	start   time.Time
	// workerBusy[i] is worker i's total compression time in nanoseconds,
	// written by the worker goroutine before exit and read by Finish
	// after wg.Wait (the WaitGroup provides the happens-before edge).
	workerBusy []int64

	finished bool
	report   *BuildReport
}

// chunkJob is one chunk's queue: its batches in order, closed when the
// chunk is sealed. A nil batch asks for a snapshot of the chunk so far.
type chunkJob struct {
	idx     int
	batches chan []uint64
}

type chunkResult struct {
	idx  int
	snap *sequitur.Snapshot
	// rhs is the grammar's RHS symbol count at seal time, the quantity
	// PeakLiveRHS maximizes.
	rhs int
}

// worker compresses chunks, appending each batch as it arrives. Each
// worker reuses one grammar via Reset, so steady-state compression
// allocates only the snapshots. Busy time (one time.Now pair per batch,
// negligible against appending up to batchEvents events) always
// accumulates into workerBusy for the BuildReport; the metric counters
// are nil-safe no-ops when instrumentation is off.
func (b *builder) worker(id int) {
	defer b.wg.Done()
	g := sequitur.New()
	g.SetMetrics(b.metrics.Grammar)
	var busy time.Duration
	idle := time.Now()
	for job := range b.jobs {
		b.metrics.QueueDepth.Set(int64(len(b.jobs)))
		g.Reset()
		var chunk time.Duration
		for es := range job.batches {
			t0 := time.Now()
			b.metrics.WorkerIdleNS.Add(uint64(t0.Sub(idle)))
			if es == nil {
				b.snaps <- g.Snapshot()
			} else {
				g.AppendBatch(es)
				b.putBatch(es)
			}
			idle = time.Now()
			chunk += idle.Sub(t0)
		}
		t0 := time.Now()
		rhs := g.Stats().RHSSymbols
		b.results <- chunkResult{idx: job.idx, snap: g.Snapshot(), rhs: rhs}
		idle = time.Now()
		chunk += idle.Sub(t0)
		busy += chunk
		b.metrics.WorkerBusyNS.Add(uint64(chunk))
		b.metrics.ChunkCompress.Observe(chunk)
	}
	b.workerBusy[id] = int64(busy)
}

// collect owns the chunk slice: workers finish out of order, the
// collector files every snapshot under its chunk index.
func (b *builder) collect() {
	for r := range b.results {
		for len(b.chunks) <= r.idx {
			b.chunks = append(b.chunks, nil)
		}
		b.chunks[r.idx] = r.snap
		b.peakRHS = max(b.peakRHS, r.rhs)
	}
	close(b.done)
}

// getBatch starts a batch in a recycled buffer, or a new one when none
// is free. Recycles are the steady-state case; counting them (rather
// than allocations) makes buffer churn visible.
func (b *builder) getBatch() {
	if b.finished {
		panic("wpp: Add after Finish")
	}
	select {
	case b.batch = <-b.free:
		b.metrics.PoolRecycles.Inc()
	default:
		b.batch = make([]uint64, 0, bufCap(b.chunkSize))
	}
	b.limit = cap(b.batch)
	if b.chunkSize > 0 {
		b.limit = int(min(uint64(b.limit), b.chunkSize-b.filled))
	}
}

// putBatch recycles a batch buffer the worker has appended, or drops it
// when enough are free.
func (b *builder) putBatch(es []uint64) {
	select {
	case b.free <- es[:0]:
	default:
	}
}

// checkEvent panics on an event SEQUITUR cannot take as a terminal. The
// front-end checks every event before it changes any state, so the
// panic reaches the caller's goroutine, where it can be recovered and
// the builder still finishes; on a worker it would kill the process.
func checkEvent(e trace.Event) {
	if uint64(e) >= sequitur.MaxTerminal {
		panic(fmt.Sprintf("wpp: event %#x out of range", uint64(e)))
	}
}

// Add feeds one event: it fills the batch and touches a channel only
// when the batch is full.
func (b *builder) Add(e trace.Event) {
	checkEvent(e)
	if b.batch == nil {
		b.getBatch()
	}
	b.batch = append(b.batch, uint64(e))
	b.events++
	if len(b.batch) == b.limit {
		b.flush()
	}
}

// AddBatch feeds a slice of events, equivalent to calling Add for each
// element. It must be called from a single goroutine (it is an interp
// Sink), and not after Finish. An out-of-range event panics before any
// event of the slice is taken.
func (b *builder) AddBatch(es []trace.Event) {
	for _, e := range es {
		checkEvent(e)
	}
	b.events += uint64(len(es))
	for len(es) > 0 {
		if b.batch == nil {
			b.getBatch()
		}
		n := min(len(es), b.limit-len(b.batch))
		for _, e := range es[:n] {
			b.batch = append(b.batch, uint64(e))
		}
		es = es[n:]
		if len(b.batch) == b.limit {
			b.flush()
		}
	}
}

// Events reports the number of events consumed so far.
func (b *builder) Events() uint64 { return b.events }

// openChunk hands the next chunk's queue to the pool. The send blocks
// while `workers` chunks already wait for a worker — the backpressure
// bound.
func (b *builder) openChunk() {
	b.open = make(chan []uint64, queueLen(b.chunkSize))
	b.jobs <- chunkJob{idx: b.nextIdx, batches: b.open}
	b.nextIdx++
	b.metrics.QueueDepth.Set(int64(len(b.jobs)))
}

// flush sends the batch to the open chunk's worker, opening a chunk
// first if none is, and seals the chunk when it is full.
func (b *builder) flush() {
	if b.open == nil {
		b.openChunk()
	}
	n := len(b.batch)
	b.open <- b.batch
	b.batch = nil
	b.metrics.EventsIngested.Add(uint64(n))
	if b.filled += uint64(n); b.filled == b.chunkSize {
		b.seal()
	}
}

// seal closes the open chunk's queue: its worker seals the grammar once
// the queued batches are appended.
func (b *builder) seal() {
	close(b.open)
	b.open = nil
	b.filled = 0
	b.metrics.ChunksSealed.Inc()
}

// SnapshotWPP captures a monolithic build mid-stream as a queryable WPP
// without sealing it. It flushes the partial batch and asks the worker
// for a snapshot of the grammar, answered between two batches, so the
// snapshot covers every event added so far; the cost table is then
// derived from the snapshot's terminals on the caller's goroutine,
// exactly as Finish derives it, and the build continues unaffected.
// Because the executed-instruction total is not known until the trace
// ends, the snapshot's Instructions is set to TotalPathCost — the
// cost-weighted trace length — so hot-subpath fractions stay well
// defined mid-stream. The caller must serialize SnapshotWPP against
// Add/AddBatch; the returned WPP shares nothing mutable with the
// builder. A chunked build has no one grammar to snapshot: SnapshotWPP
// returns nil.
func (b *builder) SnapshotWPP() *WPP {
	if b.chunkSize > 0 {
		return nil
	}
	if b.finished {
		panic("wpp: SnapshotWPP after Finish")
	}
	if len(b.batch) > 0 {
		b.flush()
	}
	b.open <- nil
	snap := <-b.snaps
	costs := fillCosts(b.nums, snap)
	w := &WPP{Funcs: sealedFuncs(b.funcs, costs), Grammar: snap, Events: b.events, costs: costs}
	w.Instructions = w.TotalPathCost()
	return w
}

// Finish seals the open chunk, waits for the pool to drain, and returns
// the artifact: a *WPP for a monolithic build, else a *ChunkedWPP. The
// builder cannot be used afterwards.
func (b *builder) Finish(instructions uint64) Artifact {
	if b.finished {
		panic("wpp: Finish called twice")
	}
	if len(b.batch) > 0 {
		b.flush()
	}
	b.finished = true
	if b.open != nil {
		b.seal()
	}
	close(b.jobs)
	b.wg.Wait()
	close(b.results)
	<-b.done
	costs := fillCosts(b.nums, b.chunks...)
	funcs := sealedFuncs(b.funcs, costs)
	var a interface {
		Artifact
		artifact() *artifact
	}
	if b.chunkSize == 0 {
		a = &WPP{Funcs: funcs, Grammar: b.chunks[0], Events: b.events, Instructions: instructions, costs: costs}
	} else {
		a = &ChunkedWPP{Funcs: funcs, Chunks: b.chunks, ChunkSize: b.chunkSize, Events: b.events,
			Instructions: instructions, PeakLiveRHS: b.peakRHS, costs: costs}
	}
	b.report = b.buildReport(a.artifact(), time.Since(b.start))
	return a
}

// buildReport assembles the build summary from the sealed artifact and
// the per-worker busy times.
func (b *builder) buildReport(a *artifact, wall time.Duration) *BuildReport {
	r := BuildReport{
		Events:        a.events,
		Chunks:        len(a.chunks),
		ChunkSize:     a.chunkSize,
		DistinctPaths: len(a.costs),
		Workers:       len(b.workerBusy),
		BytesIn:       rawTraceBytes(a.chunks),
		BytesOut:      a.encodedSize(),
		WallTime:      wall,
		WorkerBusy:    make([]float64, len(b.workerBusy)),
	}
	if r.BytesOut > 0 {
		r.Ratio = float64(r.BytesIn) / float64(r.BytesOut)
	}
	if wall > 0 {
		for i, busy := range b.workerBusy {
			r.WorkerBusy[i] = float64(busy) / float64(wall)
		}
	}
	return &r
}

// Report returns the build summary; nil before Finish.
func (b *builder) Report() *BuildReport { return b.report }

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
	_ Builder         = (*builder)(nil)
	_ Artifact        = (*WPP)(nil)
	_ Artifact        = (*ChunkedWPP)(nil)
	_ LiveSnapshotter = (*builder)(nil)
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
