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
// the trace, in two exact passes over the engine package's one chunk
// loop: per-chunk window counting on the grammar DAG, summed into one
// accumulator as chunks finish, plus boundary windows materialized
// across chunk seams. The first pass counts the shortest windows; the
// second counts longer windows only where they can still be minimal hot
// subpaths (engine.Pruning). A monolithic WPP is the one-chunk case of
// the same search, so every artifact shape of one event stream yields
// identical subpaths.
// FindByScan is the paper's strawman alternative (decompress and slide a
// window); it produces identical results and serves as both the E6
// baseline and a correctness oracle in tests.
package hotpath

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/trace"
	"repro/internal/wpp"
)

// Metrics is the analysis-side observability hook set. Fields may be nil
// (obsv metrics are nil-safe); a nil *Metrics disables instrumentation.
type Metrics struct {
	// ChunksScanned counts chunk grammars analyzed by the searches (a
	// monolithic search scans exactly one), once per search, though both
	// passes read each.
	ChunksScanned *obsv.Counter
	// BoundaryWindows counts window occurrences materialized from chunk
	// boundary regions (the work chunking adds over the monolithic scan).
	BoundaryWindows *obsv.Counter
	// WindowsDistinct counts the distinct windows the two passes of the
	// searches hold: every window of length MinLen, plus the longer
	// windows pass 2 counted. It is the size of what the harvest scans.
	WindowsDistinct *obsv.Counter
	// SubpathsEmitted counts minimal hot subpaths reported.
	SubpathsEmitted *obsv.Counter
	// Pass1Seconds times, per search, pass 1: the count of every window
	// of length MinLen, chunk grammars and seams together.
	Pass1Seconds *obsv.Histogram
	// CountSeconds times each chunk grammar's pass-2 window count. A
	// search with MaxLen == MinLen has no pass 2.
	CountSeconds *obsv.Histogram
	// SeamSeconds times, per search, pass 2's merges of each chunk's
	// parts and of the chunk counts into the accumulator, summed over the
	// chunks as each finishes, plus the count of the windows crossing
	// chunk seams.
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
		Pass1Seconds:    r.Histogram("hotpath_pass1_seconds", nil),
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

// ErrCostOverflow reports a minimal hot subpath whose cost, its count
// times the cost of one occurrence, does not fit in 64 bits. Path costs
// are read from the artifact unbounded, so a hostile or corrupt cost
// table can price a window past any uint64.
var ErrCostOverflow = errors.New("hotpath: a minimal hot subpath's cost overflows 64 bits")

// Find locates all minimal hot subpaths by analyzing the source's chunk
// grammars in compressed form, on `workers` goroutines (<=0 means
// GOMAXPROCS), in two exact passes (see engine.Pruning). Pass 1 counts
// every window of length MinLen, which gives each its exact count and
// whether it is hot. Pass 2 counts the longer windows, but walks each
// start position only until its windows can no longer be minimal hot
// subpaths. A window of the full trace either lies entirely inside one
// chunk — counted on that chunk's grammar — or crosses a chunk seam and
// is counted once, attributed to the chunk containing its start
// position. Chunk counts are summed into one accumulator as each chunk
// finishes, and the result is sorted totally, so neither the worker
// count, the order chunks finish in, nor the artifact's chunking can
// change the answer; a monolithic WPP is the one-chunk case. With fewer
// chunks than workers, each chunk's rule bodies split among the workers
// (see countWindows). Both passes take each chunk's Analysis from the
// source's holder (engine.Chunks), which keeps a monolithic view's for
// later analyses too; peak memory tracks one chunk per worker plus the
// merged counts. A view's materialization failures surface as
// *wpp.ViewError. A minimal hot subpath whose cost does not fit in 64
// bits fails the search with ErrCostOverflow.
func Find(src Source, opts Options, workers int) ([]Subpath, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	tries, err := countPasses(src, opts, workers)
	if err != nil {
		return nil, err
	}
	met := opts.metrics()
	var result []Subpath
	if tries != nil {
		start := time.Now()
		result, err = harvest(tries, opts, src)
		met.HarvestSeconds.Observe(time.Since(start))
		// The result holds copies of the windows, so the tries can go
		// back to the pool.
		for _, t := range tries {
			t.Release()
		}
		if err != nil {
			return nil, err
		}
	}
	sortSubpaths(result)
	met.SubpathsEmitted.Add(uint64(len(result)))
	return result, nil
}

// countPasses runs the two passes of Find and returns the tries its
// harvest reads: pass 1's count of every window of length MinLen, then,
// unless MaxLen == MinLen or pass 1 leaves pass 2 nothing to count
// (engine.Pruning.Live), pass 2's pruned count of the longer windows. A
// source without chunks or without instructions, where nothing is hot,
// yields none after pass 1.
func countPasses(src Source, opts Options, workers int) ([]*engine.WindowTrie, error) {
	met := opts.metrics()
	chunks := engine.Hold(src) // one holder for both passes
	start := time.Now()
	base, err := countWindows(chunks, workers, pass{minLen: opts.MinLen, maxLen: opts.MinLen}, met)
	if err != nil {
		return nil, err
	}
	met.Pass1Seconds.Observe(time.Since(start))
	met.ChunksScanned.Add(uint64(src.NumChunks()))
	total := src.TotalInstructions()
	switch {
	case base == nil:
		return nil, nil
	case total == 0:
		base.Release()
		return nil, nil
	case opts.MaxLen == opts.MinLen:
		return []*engine.WindowTrie{base}, nil
	}
	cost := func(v uint64) uint64 { return src.PathCost(trace.Event(v)) }
	p := engine.NewPruning(base, opts.MinLen, opts.MaxLen, cost, hotFloor(opts, total))
	if !p.Live() {
		return []*engine.WindowTrie{base}, nil
	}
	longer, err := countWindows(chunks, workers, pass{minLen: opts.MinLen + 1, maxLen: opts.MaxLen, prune: p, count: met.CountSeconds, seam: met.SeamSeconds}, met)
	if err != nil {
		base.Release()
		return nil, err
	}
	return []*engine.WindowTrie{base, longer}, nil
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

// eachPart calls fn(0), ..., fn(n-1), each on its own goroutine when
// n > 1, and returns when all have.
func eachPart(n int, fn func(s int)) {
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

// pass is one window count over a source: the window lengths it counts,
// the pruning that restricts it (nil counts every window) and the timers
// of its chunk counts and of its merges plus seam count (nil for none).
type pass struct {
	minLen, maxLen int
	prune          *engine.Pruning
	count, seam    *obsv.Histogram
}

// countWindows counts the windows of length ps.minLen..ps.maxLen in the
// source's trace, pruned by ps.prune, into one trie: each chunk's
// windows, counted on its grammar, then the windows crossing chunk seams
// (weight 1 each, attributed to the chunk holding their start — a single
// chunk contributes none), pruned alike. A source with fewer chunks
// than workers splits each chunk's rule bodies into workers/chunks parts
// (engine.CountWindowPart), counted on the workers the chunks leave idle
// and merged into the chunk's first part; otherwise there is one part.
// The first chunk to finish keeps its trie as the accumulator; each later
// chunk's trie is added to it under one lock as soon as that chunk is
// counted, so the search holds one chunk's tries per worker plus the
// accumulator, whatever the chunk count. Merged tries are left to the
// garbage collector, not released to the trie pool: a pooled trie keeps
// its grown slot table, so a small count drawing it would probe a sparse
// table. Seam boundaries are kept by chunk index, so the crossing
// windows are found in chunk order. A source without chunks yields no
// trie. A source whose chunks together hold more events than a uint64
// counts fails (engine.AddLength): its window counts could wrap.
func countWindows(src engine.Source, workers int, ps pass, met *Metrics) (*engine.WindowTrie, error) {
	n := src.NumChunks()
	parts := max(1, engine.Workers(workers)/max(n, 1))
	bounds := make([]engine.Boundary, n)
	var (
		mu    sync.Mutex
		t     *engine.WindowTrie // the accumulator
		merge time.Duration
	)
	err := engine.EachAnalysis(src, workers, func(i int, a *engine.Analysis) error {
		start := time.Now()
		chunk := make([]*engine.WindowTrie, parts)
		eachPart(parts, func(s int) {
			chunk[s] = a.CountWindowPart(ps.minLen, ps.maxLen, ps.prune, s, parts)
		})
		ps.count.Observe(time.Since(start))
		bounds[i] = a.Boundary(ps.maxLen - 1)
		start = time.Now()
		for _, o := range chunk[1:] {
			chunk[0].Merge(o)
		}
		parted := time.Since(start)
		mu.Lock()
		defer mu.Unlock()
		merge += parted
		if t == nil {
			t = chunk[0]
			return nil
		}
		start = time.Now()
		t.Merge(chunk[0])
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
	if t == nil {
		return nil, nil
	}
	start := time.Now()
	engine.CrossingWindows(bounds, ps.maxLen, func(window []uint64, from int) {
		from = max(from, ps.minLen)
		if l := ps.prune.Cut(window); from <= l {
			t.Add(window[:l], from, 1)
			met.BoundaryWindows.Add(uint64(l - from + 1))
		}
	})
	ps.seam.Observe(merge + time.Since(start))
	if err := t.Err(); err != nil {
		return nil, fmt.Errorf("hotpath: %w", err)
	}
	return t, nil
}

// FindByScan locates the same minimal hot subpaths by decompressing the
// trace and sliding a window over it, one length at a time. It fails
// with ErrCostOverflow where Find does.
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
			var unit, carry uint64
			over := false
			for i := 0; i < len(k); i += 8 {
				unit, carry = bits.Add64(unit, w.PathCost(trace.Event(binary.BigEndian.Uint64([]byte(k[i:i+8])))), 0)
				over = over || carry != 0
			}
			if h, ok := hotCost(unit, over, count, opts, w.Instructions); ok {
				h.key = k
				hot = append(hot, h)
			}
		}
	}
	result, err := minimal(hot, opts.MinLen)
	if err != nil {
		return nil, err
	}
	sortSubpaths(result)
	return result, nil
}

// harvest scans the tries' windows for hot ones and returns the minimal
// hot subpaths among them all under the source's cost model. No window
// may be counted in two of the tries.
func harvest(tries []*engine.WindowTrie, opts Options, src Source) ([]Subpath, error) {
	met := opts.metrics()
	var hot []hotWindow
	for _, t := range tries {
		h, distinct := hotWindows(t, opts, src)
		hot = append(hot, h...)
		met.WindowsDistinct.Add(distinct)
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
	over := make([]bool, t.Len()) // unit[n] wrapped
	var distinct uint64
	var hot []hotWindow
	var syms []uint64
	for n := 1; n < t.Len(); n++ {
		p := t.Parent[n]
		var carry uint64
		unit[n], carry = bits.Add64(unit[p], symCost[t.Sym[n]], 0)
		over[n] = over[p] || carry != 0
		count := t.Count[n]
		if count == 0 || int(t.Depth[n]) < opts.MinLen {
			continue
		}
		distinct++
		h, ok := hotCost(unit[n], over[n], count, opts, total)
		if !ok {
			continue
		}
		syms = t.Window(uint32(n), syms[:0])
		key := make([]byte, 0, 8*len(syms))
		for _, v := range syms {
			key = binary.BigEndian.AppendUint64(key, v)
		}
		h.key = string(key)
		hot = append(hot, h)
	}
	return hot, distinct
}

// hotWindow is a window whose aggregate cost meets the threshold, keyed
// by its symbols' concatenated 8-byte big-endian encodings. A window
// whose cost does not fit in 64 bits is hot, with overflow set and no
// cost.
type hotWindow struct {
	key         string
	count, cost uint64
	frac        float64
	overflow    bool
}

// hotCost applies the threshold to a window occurring count times at
// unit cost per occurrence, over reporting a unit cost past 64 bits, and
// returns the window, without its key, and whether it is hot.
func hotCost(unit uint64, over bool, count uint64, opts Options, total uint64) (hotWindow, bool) {
	hi, cost := bits.Mul64(unit, count)
	if over || hi != 0 {
		return hotWindow{count: count, overflow: true}, true
	}
	frac := float64(cost) / float64(total)
	return hotWindow{count: count, cost: cost, frac: frac}, !(frac < opts.Threshold)
}

// hotFloor returns the least cost hotCost calls hot out of total, the
// engine.Pruning floor. The threshold test is monotone in the cost, and
// total itself is hot, so a binary search over 0..total finds it.
func hotFloor(opts Options, total uint64) uint64 {
	lo, hi := uint64(0), total
	for lo < hi {
		mid := lo + (hi-lo)/2
		if _, hot := hotCost(mid, false, 1, opts, total); hot {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// minimal returns the hot windows no proper contiguous subwindow of which
// (of length >= minLen) is itself hot, or ErrCostOverflow if the cost of
// one of them overflows.
func minimal(hot []hotWindow, minLen int) ([]Subpath, error) {
	set := make(map[string]bool, len(hot))
	for _, h := range hot {
		set[h.key] = true
	}
	var result []Subpath
	for _, h := range hot {
		if containsHotSub(h.key, len(h.key)/8, minLen, set) {
			continue
		}
		if h.overflow {
			return nil, ErrCostOverflow
		}
		result = append(result, Subpath{Events: decodeKey(h.key), Count: h.count, Cost: h.cost, Fraction: h.frac})
	}
	return result, nil
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
