// Package hotpath finds minimal hot subpaths in a whole program path, the
// flagship analysis of Larus's PLDI 1999 paper: sequences of at least L
// consecutive acyclic paths whose aggregate cost (occurrences times
// instructions per occurrence) meets a threshold fraction of the whole
// execution, where no shorter contained subpath is itself hot.
//
// Every analysis here is one function over Source, the engine's chunk
// grammars plus their cost model, so a monolithic WPP, a chunked WPP and
// a lazy view of either are analyzed by the same code. The hot-subpath
// search runs directly on the SEQUITUR grammar, without decompressing
// the trace, over the engine package's one chunk loop: per-chunk window
// counting on the grammar DAG, summed into one accumulator as chunks
// finish, plus boundary windows materialized across chunk seams. A
// monolithic WPP is the one-chunk case of the same search, so every
// artifact shape of one event stream yields identical subpaths.
// FindByScan is the paper's strawman alternative (decompress and slide a
// window); it produces identical results and serves as both the E6
// baseline and a correctness oracle in tests.
package hotpath

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/wpp"
)

// Metrics is the analysis-side observability hook set. Fields may be nil
// (obsv metrics are nil-safe); a nil *Metrics disables instrumentation.
type Metrics struct {
	// ChunksScanned counts chunk grammars analyzed by the searches (a
	// monolithic search scans exactly one).
	ChunksScanned *obsv.Counter
	// BoundaryWindows counts window occurrences materialized from chunk
	// boundary regions (the work chunking adds over the monolithic scan).
	BoundaryWindows *obsv.Counter
	// WindowsDistinct counts the distinct windows of length MinLen..MaxLen
	// the searches counted, the size of what the harvest scans.
	WindowsDistinct *obsv.Counter
	// SubpathsEmitted counts minimal hot subpaths reported.
	SubpathsEmitted *obsv.Counter
	// CountSeconds times each chunk grammar's window count.
	CountSeconds *obsv.Histogram
	// SeamSeconds times, per search, the merges of the chunk counts into
	// the accumulator, summed over the chunks as each finishes, plus the
	// count of the windows crossing chunk seams.
	SeamSeconds *obsv.Histogram
	// HarvestSeconds times, per search, the scan of the counted windows
	// for minimal hot subpaths.
	HarvestSeconds *obsv.Histogram
}

// NewMetrics registers the standard analysis metric names on r. A nil
// registry yields nil (no-op) metrics.
func NewMetrics(r *obsv.Registry) *Metrics {
	return &Metrics{
		ChunksScanned:   r.Counter("hotpath_chunks_scanned_total"),
		BoundaryWindows: r.Counter("hotpath_boundary_windows_total"),
		WindowsDistinct: r.Counter("hotpath_windows_distinct_total"),
		SubpathsEmitted: r.Counter("hotpath_subpaths_total"),
		CountSeconds:    r.Histogram("hotpath_count_seconds", nil),
		SeamSeconds:     r.Histogram("hotpath_seam_seconds", nil),
		HarvestSeconds:  r.Histogram("hotpath_harvest_seconds", nil),
	}
}

// noopMetrics backs Options with a nil Metrics pointer.
var noopMetrics = &Metrics{}

// Options selects what counts as a hot subpath.
type Options struct {
	// MinLen and MaxLen bound the subpath length in acyclic paths
	// (events). MinLen >= 1; MinLen <= MaxLen <= engine.MaxWindowLen, the
	// longest window the search's window trie holds (a longer MaxLen is
	// rejected with an *engine.LimitError).
	MinLen, MaxLen int
	// Threshold is the fraction of the execution's total instruction
	// count a subpath's aggregate cost must reach to be hot, e.g. 0.01
	// for 1%.
	Threshold float64
	// Metrics installs observability hooks on the search; nil disables
	// them. Results are identical either way.
	Metrics *Metrics
}

// metrics returns the hook set, never nil.
func (o Options) metrics() *Metrics {
	if o.Metrics == nil {
		return noopMetrics
	}
	return o.Metrics
}

func (o Options) validate() error {
	if o.MinLen < 1 {
		return fmt.Errorf("hotpath: MinLen %d < 1", o.MinLen)
	}
	if o.MaxLen < o.MinLen {
		return fmt.Errorf("hotpath: MaxLen %d < MinLen %d", o.MaxLen, o.MinLen)
	}
	if o.MaxLen > engine.MaxWindowLen {
		return fmt.Errorf("hotpath: %w", &engine.LimitError{What: "MaxLen", Value: uint64(o.MaxLen), Limit: engine.MaxWindowLen})
	}
	if !(o.Threshold > 0 && o.Threshold <= 1) { // also rejects NaN
		return fmt.Errorf("hotpath: Threshold %v outside (0,1]", o.Threshold)
	}
	return nil
}

// Subpath is one discovered hot subpath.
type Subpath struct {
	// Events is the sequence of acyclic path events.
	Events []trace.Event
	// Count is the number of (possibly overlapping) occurrences in the
	// trace.
	Count uint64
	// Cost is Count times the instruction cost of one occurrence.
	Cost uint64
	// Fraction is Cost over the execution's total instruction count.
	Fraction float64
}

// Source is what the analyses read: the chunk grammars of an artifact
// plus the cost model that prices their events.
type Source interface {
	engine.Source
	// PathCost returns the instruction cost of one occurrence of an
	// event's acyclic path (0 for unknown events). It must be safe for
	// concurrent calls.
	PathCost(trace.Event) uint64
	// TotalInstructions is the execution's instruction count.
	TotalInstructions() uint64
}

var (
	_ Source = (*wpp.WPP)(nil)
	_ Source = (*wpp.ChunkedWPP)(nil)
	_ Source = (*wpp.ArtifactView)(nil)
)

// Find locates all minimal hot subpaths by analyzing the source's chunk
// grammars in compressed form, on `workers` goroutines (<=0 means
// GOMAXPROCS). A window of the full trace either lies entirely inside
// one chunk — counted on that chunk's grammar — or crosses a chunk seam
// and is counted once, attributed to the chunk containing its start
// position. Chunk counts are summed into one accumulator as each chunk
// finishes, and the result is sorted totally, so neither the worker
// count, the order chunks finish in, nor the artifact's chunking can
// change the answer; a monolithic WPP is the one-chunk case. With fewer
// chunks than workers, each chunk's count splits into prefix shards so
// every worker counts (see countWindows). A lazy view materializes each
// chunk grammar inside the per-chunk pass and drops it once its counts
// are merged, so peak memory tracks one chunk per worker plus the merged
// counts; its materialization failures surface as *wpp.ViewError.
func Find(src Source, opts Options, workers int) ([]Subpath, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	tries, err := countWindows(src, workers, opts)
	if err != nil {
		return nil, err
	}
	met := opts.metrics()
	var result []Subpath
	if tries != nil {
		start := time.Now()
		result = harvest(tries, opts, src)
		met.HarvestSeconds.Observe(time.Since(start))
		// The result holds copies of the windows, so the accumulator's
		// tries can go back to the pool; the chunk tries merged into
		// them are already garbage (see countWindows).
		for _, t := range tries {
			t.Release()
		}
	}
	sortSubpaths(result)
	met.SubpathsEmitted.Add(uint64(len(result)))
	return result, nil
}

// FindChunked is Find on a chunked WPP, kept because the perfbench
// module calls it by name.
func FindChunked(c *wpp.ChunkedWPP, opts Options, workers int) ([]Subpath, error) {
	return Find(c, opts, workers)
}

// FindView is Find on a lazy view, kept because the perfbench module
// calls it by name.
func FindView(v *wpp.ArtifactView, opts Options, workers int) ([]Subpath, error) {
	return Find(v, opts, workers)
}

// eachShard calls fn(0), ..., fn(n-1), each on its own goroutine when
// n > 1, and returns when all have.
func eachShard(n int, fn func(s int)) {
	var wg sync.WaitGroup
	for s := 1; s < n; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(s)
		}()
	}
	fn(0)
	wg.Wait()
}

// countWindows counts every window of length opts.MinLen..opts.MaxLen in
// the source's trace into disjoint prefix-shard tries (see
// engine.CountWindowShard): each chunk's windows, counted on its grammar,
// then the windows crossing chunk seams (weight 1 each, attributed to the
// chunk holding their start — a single chunk contributes none), each
// routed to the shard of its first MinLen events. The first chunk to
// finish keeps its tries as the accumulator; each later chunk's tries are
// added to it shard by shard, under one lock, as soon as that chunk is
// counted, so the search holds one chunk's tries per worker plus the
// accumulator, whatever the chunk count. Merged chunk tries are left to
// the garbage collector, not released to the trie pool: a pooled trie
// keeps its grown slot table, so a small count drawing it would probe a
// sparse table. Seam boundaries are kept by chunk index, so the crossing
// windows are found in chunk order. A source with fewer chunks than workers splits into
// workers/chunks shards, so the workers the chunks leave idle count
// shards of them; otherwise there is one shard. A source without chunks
// yields no tries. A source whose chunks together hold more events than
// a uint64 counts fails (engine.AddLength): its window counts could wrap.
func countWindows(src engine.Source, workers int, opts Options) ([]*engine.WindowTrie, error) {
	met := opts.metrics()
	n := src.NumChunks()
	shards := max(1, engine.Workers(workers)/max(n, 1))
	bounds := make([]engine.Boundary, n)
	var (
		mu    sync.Mutex
		tries []*engine.WindowTrie // the accumulator, one trie per shard
		merge time.Duration
	)
	err := engine.EachChunk(src, workers, func(i int, sn *sequitur.Snapshot) error {
		met.ChunksScanned.Inc()
		a := engine.NewAnalysis(sn)
		start := time.Now()
		chunk := make([]*engine.WindowTrie, shards)
		eachShard(shards, func(s int) {
			chunk[s] = a.CountWindowShard(opts.MinLen, opts.MaxLen, s, shards)
		})
		met.CountSeconds.Observe(time.Since(start))
		bounds[i] = a.Boundary(opts.MaxLen - 1)
		mu.Lock()
		defer mu.Unlock()
		if tries == nil {
			tries = chunk
			return nil
		}
		start = time.Now()
		eachShard(shards, func(s int) { tries[s].Merge(chunk[s]) })
		merge += time.Since(start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var events uint64
	for _, b := range bounds {
		if events, err = engine.AddLength(events, b.Length); err != nil {
			return nil, fmt.Errorf("hotpath: %w", err)
		}
	}
	start := time.Now()
	engine.CrossingWindows(bounds, opts.MaxLen, func(window []uint64, from int) {
		if from = max(from, opts.MinLen); from <= len(window) {
			tries[engine.ShardOf(window[:opts.MinLen], shards)].Add(window, from, 1)
			met.BoundaryWindows.Add(uint64(len(window) - from + 1))
		}
	})
	met.SeamSeconds.Observe(merge + time.Since(start))
	for _, t := range tries {
		if err := t.Err(); err != nil {
			return nil, fmt.Errorf("hotpath: %w", err)
		}
	}
	return tries, nil
}

// FindByScan locates the same minimal hot subpaths by decompressing the
// trace and sliding a window over it, one length at a time.
func FindByScan(w *wpp.WPP, opts Options) ([]Subpath, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if w.Instructions == 0 {
		return nil, nil
	}
	var events []trace.Event
	w.Walk(func(e trace.Event) bool { events = append(events, e); return true })
	counts := make(map[string]uint64)
	var hot []hotWindow
	key := make([]byte, 0, opts.MaxLen*8)
	for l := opts.MinLen; l <= opts.MaxLen; l++ {
		clear(counts)
		for i := 0; i+l <= len(events); i++ {
			key = key[:0]
			for _, e := range events[i : i+l] {
				key = binary.BigEndian.AppendUint64(key, uint64(e))
			}
			counts[string(key)]++
		}
		for k, count := range counts {
			var unit uint64
			for i := 0; i < len(k); i += 8 {
				unit += w.PathCost(trace.Event(binary.BigEndian.Uint64([]byte(k[i : i+8]))))
			}
			if cost, frac, ok := hotCost(unit, count, opts, w.Instructions); ok {
				hot = append(hot, hotWindow{key: k, count: count, cost: cost, frac: frac})
			}
		}
	}
	result := minimal(hot, opts.MinLen)
	sortSubpaths(result)
	return result, nil
}

// harvest scans the shard tries' windows for hot ones, the shards
// concurrently, and returns the minimal hot subpaths among them all
// under the source's cost model.
func harvest(tries []*engine.WindowTrie, opts Options, src Source) []Subpath {
	if src.TotalInstructions() == 0 {
		return nil
	}
	hots := make([][]hotWindow, len(tries))
	distinct := make([]uint64, len(tries))
	eachShard(len(tries), func(s int) {
		hots[s], distinct[s] = hotWindows(tries[s], opts, src)
	})
	met := opts.metrics()
	var hot []hotWindow
	for s := range tries {
		hot = append(hot, hots[s]...)
		met.WindowsDistinct.Add(distinct[s])
	}
	return minimal(hot, opts.MinLen)
}

// hotWindows scans one trie's windows once, in node order, extending each
// window's unit cost from its prefix's by its last symbol's, priced once
// per rank, and returns its hot windows and its number of distinct
// counted windows. Keys are materialized only for hot windows.
func hotWindows(t *engine.WindowTrie, opts Options, src Source) ([]hotWindow, uint64) {
	total := src.TotalInstructions()
	symCost := make([]uint64, len(t.Dict))
	for k, v := range t.Dict {
		symCost[k] = src.PathCost(trace.Event(v))
	}
	unit := make([]uint64, t.Len())
	var distinct uint64
	var hot []hotWindow
	var syms []uint64
	for n := 1; n < t.Len(); n++ {
		unit[n] = unit[t.Parent[n]] + symCost[t.Sym[n]]
		count := t.Count[n]
		if count == 0 || int(t.Depth[n]) < opts.MinLen {
			continue
		}
		distinct++
		cost, frac, ok := hotCost(unit[n], count, opts, total)
		if !ok {
			continue
		}
		syms = t.Window(uint32(n), syms[:0])
		key := make([]byte, 0, 8*len(syms))
		for _, v := range syms {
			key = binary.BigEndian.AppendUint64(key, v)
		}
		hot = append(hot, hotWindow{key: string(key), count: count, cost: cost, frac: frac})
	}
	return hot, distinct
}

// hotWindow is a window whose aggregate cost meets the threshold, keyed
// by its symbols' concatenated 8-byte big-endian encodings.
type hotWindow struct {
	key         string
	count, cost uint64
	frac        float64
}

// hotCost applies the threshold to a window occurring count times at
// unit cost per occurrence.
func hotCost(unit, count uint64, opts Options, total uint64) (cost uint64, frac float64, hot bool) {
	cost = unit * count
	frac = float64(cost) / float64(total)
	return cost, frac, !(frac < opts.Threshold)
}

// minimal returns the hot windows no proper contiguous subwindow of which
// (of length >= minLen) is itself hot.
func minimal(hot []hotWindow, minLen int) []Subpath {
	set := make(map[string]bool, len(hot))
	for _, h := range hot {
		set[h.key] = true
	}
	var result []Subpath
	for _, h := range hot {
		if containsHotSub(h.key, len(h.key)/8, minLen, set) {
			continue
		}
		result = append(result, Subpath{Events: decodeKey(h.key), Count: h.count, Cost: h.cost, Fraction: h.frac})
	}
	return result
}

// containsHotSub reports whether any proper contiguous subwindow of key
// (of length >= minLen) is hot.
func containsHotSub(key string, l, minLen int, hot map[string]bool) bool {
	for sub := minLen; sub < l; sub++ {
		for off := 0; off+sub <= l; off++ {
			if hot[key[off*8:(off+sub)*8]] {
				return true
			}
		}
	}
	return false
}

func decodeKey(key string) []trace.Event {
	events := make([]trace.Event, len(key)/8)
	for i := range events {
		events[i] = trace.Event(binary.BigEndian.Uint64([]byte(key[i*8 : (i+1)*8])))
	}
	return events
}

func sortSubpaths(s []Subpath) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Cost != s[j].Cost {
			return s[i].Cost > s[j].Cost
		}
		if len(s[i].Events) != len(s[j].Events) {
			return len(s[i].Events) < len(s[j].Events)
		}
		for k := range s[i].Events {
			if s[i].Events[k] != s[j].Events[k] {
				return s[i].Events[k] < s[j].Events[k]
			}
		}
		return false
	})
}

// Coverage sums the cost fractions of the given subpaths. Overlapping
// occurrences can push the sum past 1; callers typically report
// min(sum, 1).
func Coverage(subpaths []Subpath) float64 {
	var sum float64
	for _, s := range subpaths {
		sum += s.Fraction
	}
	return sum
}
