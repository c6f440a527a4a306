package wpp

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/bl"
	"repro/internal/sequitur"
	"repro/internal/trace"
)

// ParallelOptions tunes the parallel chunked pipeline.
type ParallelOptions struct {
	// Workers is the number of concurrent SEQUITUR compressors. Zero or
	// negative means runtime.GOMAXPROCS(0).
	Workers int
	// Metrics installs observability hooks on the pipeline (see
	// BuildMetrics). Nil disables instrumentation; the artifact is
	// byte-identical either way.
	Metrics *BuildMetrics
}

func (o ParallelOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelChunkedBuilder builds a ChunkedWPP, compressing chunks on a
// bounded worker pool. Its output is defined independently of the pool:
// chunk i is the SEQUITUR grammar of events [i·chunkSize,
// (i+1)·chunkSize) of the stream, each distinct event is priced once,
// and PeakLiveRHS is the largest chunk grammar's symbol count at seal
// time. SEQUITUR is a deterministic function of a chunk's events and
// results are reassembled by chunk index, so the artifact — Chunks,
// Stats and encoding — is byte-identical at every worker count and
// schedule.
//
// The Add front-end stays single-threaded (it is an interp Sink, called
// from one goroutine): it only buffers events and tallies path costs; a
// full buffer is handed to the pool over a bounded channel, so a slow
// compressor exerts backpressure on the producer instead of queueing
// unbounded raw chunks.
//
// Live memory is bounded by O(workers · chunkSize): at most `workers`
// chunks queued in the channel, `workers` being compressed, and one being
// filled.
type ParallelChunkedBuilder struct {
	chunkSize uint64
	funcs     []FuncInfo
	nums      []*bl.Numbering
	events    uint64
	costs     map[trace.Event]uint64

	buf     []uint64 // current chunk, owned by the Add goroutine
	nextIdx int      // index of the chunk being filled

	jobs    chan parallelJob
	done    chan struct{} // closed when the collector has drained results
	results chan parallelResult
	wg      sync.WaitGroup
	bufPool sync.Pool

	// Collector-owned state, safe to read only after <-done.
	chunks  []*sequitur.Snapshot
	peakRHS int

	// lazyCosts: see MonoBuilder.
	lazyCosts bool

	metrics BuildMetrics
	start   time.Time
	// workerBusy[i] is worker i's total compression time in nanoseconds,
	// written by the worker goroutine before exit and read by Finish
	// after wg.Wait (the WaitGroup provides the happens-before edge).
	workerBusy []int64

	finished bool
	report   BuildReport
}

type parallelJob struct {
	idx    int
	events []uint64
}

type parallelResult struct {
	idx  int
	snap *sequitur.Snapshot
	// rhs is the grammar's RHS symbol count at seal time, the quantity
	// PeakLiveRHS maximizes.
	rhs int
}

// NewParallelChunkedBuilder returns a parallel builder that seals a chunk
// every chunkSize events and compresses chunks on opts.Workers
// goroutines. chunkSize must be positive.
func NewParallelChunkedBuilder(names []string, nums []*bl.Numbering, chunkSize uint64, opts ParallelOptions) *ParallelChunkedBuilder {
	if chunkSize == 0 {
		panic("wpp: chunk size must be positive")
	}
	workers := opts.workers()
	b := &ParallelChunkedBuilder{
		chunkSize:  chunkSize,
		funcs:      funcTable(names, nums),
		nums:       nums,
		costs:      map[trace.Event]uint64{},
		jobs:       make(chan parallelJob, workers),
		results:    make(chan parallelResult, workers),
		done:       make(chan struct{}),
		metrics:    opts.Metrics.orNoop(),
		start:      time.Now(),
		workerBusy: make([]int64, workers),
	}
	for i := 0; i < workers; i++ {
		b.wg.Add(1)
		go b.worker(i)
	}
	go b.collect()
	return b
}

// getBuf returns a recycled chunk buffer, or allocates one when the pool
// is empty. Pool hits are the steady-state case; counting them (rather
// than allocations) makes buffer churn visible.
func (b *ParallelChunkedBuilder) getBuf() []uint64 {
	if v := b.bufPool.Get(); v != nil {
		b.metrics.PoolRecycles.Inc()
		return v.([]uint64)
	}
	return make([]uint64, 0, bufCap(b.chunkSize))
}

// bufCap caps the initial chunk-buffer allocation: huge chunk sizes (used
// to emulate monolithic construction) must not preallocate huge buffers.
func bufCap(chunkSize uint64) int {
	const max = 1 << 16
	if chunkSize > max {
		return max
	}
	return int(chunkSize)
}

// worker compresses chunks. Each worker reuses one grammar via Reset, so
// steady-state compression allocates only the snapshots. Busy time (one
// time.Now pair per chunk, negligible against compressing chunkSize
// events) always accumulates into workerBusy for the BuildReport; the
// metric counters are nil-safe no-ops when instrumentation is off.
func (b *ParallelChunkedBuilder) worker(id int) {
	defer b.wg.Done()
	g := sequitur.New()
	g.SetMetrics(b.metrics.Grammar)
	var busy int64
	idleStart := time.Now()
	for job := range b.jobs {
		t0 := time.Now()
		b.metrics.WorkerIdleNS.Add(uint64(t0.Sub(idleStart)))
		b.metrics.QueueDepth.Set(int64(len(b.jobs)))
		g.Reset()
		// The chunk slice is a ready-made batch; the batched fast path
		// produces a grammar identical to per-event Append (the tests'
		// per-event reference build is the oracle they compare against).
		g.AppendBatch(job.events)
		rhs := g.Stats().RHSSymbols
		snap := g.Snapshot()
		job.events = job.events[:0]
		b.bufPool.Put(job.events) //nolint:staticcheck // slice header boxing is fine here
		b.results <- parallelResult{idx: job.idx, snap: snap, rhs: rhs}
		d := time.Since(t0)
		busy += int64(d)
		b.metrics.WorkerBusyNS.Add(uint64(d))
		b.metrics.ChunkCompress.Observe(d)
		idleStart = time.Now()
	}
	b.workerBusy[id] = busy
}

// collect owns the chunk slice: workers finish out of order, the
// collector files every snapshot under its chunk index.
func (b *ParallelChunkedBuilder) collect() {
	for r := range b.results {
		for len(b.chunks) <= r.idx {
			b.chunks = append(b.chunks, nil)
		}
		b.chunks[r.idx] = r.snap
		if r.rhs > b.peakRHS {
			b.peakRHS = r.rhs
		}
	}
	close(b.done)
}

// Add feeds one event. It must be called from a single goroutine (it is
// an interp Sink), and not after Finish.
func (b *ParallelChunkedBuilder) Add(e trace.Event) {
	if b.finished {
		panic("wpp: Add after Finish")
	}
	if b.buf == nil {
		b.buf = b.getBuf()
	}
	b.buf = append(b.buf, uint64(e))
	b.events++
	b.metrics.EventsIngested.Inc()
	if _, seen := b.costs[e]; !seen {
		b.costs[e] = pathCost(b.nums, e)
	}
	if uint64(len(b.buf)) >= b.chunkSize {
		b.seal()
	}
}

// AddBatch feeds a slice of events, filling and sealing chunk buffers
// as boundaries are crossed. Like Add it must be called from a single
// goroutine, and not after Finish. It is equivalent to calling Add per
// element; distinct-path costs are derived from the sealed chunk
// grammars at Finish instead of being tracked per event. Add and
// AddBatch may be mixed.
func (b *ParallelChunkedBuilder) AddBatch(es []trace.Event) {
	if b.finished {
		panic("wpp: AddBatch after Finish")
	}
	if len(es) == 0 {
		return
	}
	b.events += uint64(len(es))
	b.metrics.EventsIngested.Add(uint64(len(es)))
	b.lazyCosts = true
	for len(es) > 0 {
		if b.buf == nil {
			b.buf = b.getBuf()
		}
		n := uint64(len(es))
		if room := b.chunkSize - uint64(len(b.buf)); n > room {
			n = room
		}
		for _, e := range es[:n] {
			b.buf = append(b.buf, uint64(e))
		}
		es = es[n:]
		if uint64(len(b.buf)) >= b.chunkSize {
			b.seal()
		}
	}
}

// Events reports the number of events consumed so far.
func (b *ParallelChunkedBuilder) Events() uint64 { return b.events }

// seal hands the full buffer to the pool. The send blocks when all
// workers are busy and the queue is full — the backpressure bound.
func (b *ParallelChunkedBuilder) seal() {
	b.jobs <- parallelJob{idx: b.nextIdx, events: b.buf}
	b.nextIdx++
	b.buf = nil
	b.metrics.ChunksSealed.Inc()
	b.metrics.QueueDepth.Set(int64(len(b.jobs)))
}

// Finish seals the current partial chunk, waits for the pool to drain,
// and returns the artifact. The builder cannot be used afterwards.
func (b *ParallelChunkedBuilder) Finish(instructions uint64) *ChunkedWPP {
	if b.finished {
		panic("wpp: Finish called twice")
	}
	b.finished = true
	if len(b.buf) > 0 {
		b.seal()
	}
	close(b.jobs)
	b.wg.Wait()
	close(b.results)
	<-b.done
	if b.lazyCosts {
		fillCosts(b.costs, b.nums, b.chunks...)
	}
	c := &ChunkedWPP{
		Funcs:        b.funcs,
		Chunks:       b.chunks,
		ChunkSize:    b.chunkSize,
		Events:       b.events,
		Instructions: instructions,
		PeakLiveRHS:  b.peakRHS,
		costs:        b.costs,
	}
	b.report = b.buildReport(c, time.Since(b.start))
	return c
}

// buildReport assembles the build summary from the sealed artifact and
// the per-worker busy times.
func (b *ParallelChunkedBuilder) buildReport(c *ChunkedWPP, wall time.Duration) BuildReport {
	r := BuildReport{
		Events:        c.Events,
		Chunks:        len(c.Chunks),
		ChunkSize:     c.ChunkSize,
		DistinctPaths: len(c.costs),
		Workers:       len(b.workerBusy),
		BytesIn:       c.RawTraceBytes(),
		BytesOut:      c.EncodedSize(),
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
	return r
}

// Report returns the build summary. Valid only after Finish.
func (b *ParallelChunkedBuilder) Report() BuildReport {
	if !b.finished {
		panic("wpp: Report before Finish")
	}
	return b.report
}
