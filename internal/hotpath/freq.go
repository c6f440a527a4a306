package hotpath

import (
	"sort"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/wpp"
)

// freqFold is the event-frequency analysis expressed over the engine:
// each terminal occurrence in a rule body contributes the rule's
// derivation-tree use count, and chunk results merge by summation.
type freqFold struct{}

func (freqFold) Chunk(_ int, a *engine.Analysis) map[trace.Event]uint64 {
	m := make(map[trace.Event]uint64)
	a.Terminals(func(v, uses uint64) {
		m[trace.Event(v)] += uses
	})
	return m
}

func (freqFold) Merge(acc, next map[trace.Event]uint64) map[trace.Event]uint64 {
	for e, n := range next {
		acc[e] += n
	}
	return acc
}

// frequencies is the single implementation behind EventFrequencies,
// ChunkedEventFrequencies, and EventFrequenciesView.
func frequencies(src engine.Source, workers int) (map[trace.Event]uint64, error) {
	freqs, err := engine.RunSource(src, workers, freqFold{})
	if err != nil {
		return nil, err
	}
	if freqs == nil {
		freqs = make(map[trace.Event]uint64)
	}
	return freqs, nil
}

// EventFrequencies returns the execution count of every distinct acyclic
// path event, computed from the grammar without decompressing the trace.
func EventFrequencies(w *wpp.WPP) map[trace.Event]uint64 {
	freqs, _ := frequencies(w, 1)
	return freqs
}

// ChunkedEventFrequencies returns the execution count of every distinct
// event, computed per chunk in compressed form on `workers` goroutines
// (<=0 means GOMAXPROCS) and merged. It matches EventFrequencies on a
// monolithic WPP over the same stream exactly.
func ChunkedEventFrequencies(c *wpp.ChunkedWPP, workers int) map[trace.Event]uint64 {
	freqs, _ := frequencies(c, workers)
	return freqs
}

// EventFrequenciesView computes the same frequency map directly over a
// lazy view, materializing one chunk per worker at a time. It matches
// the eager functions exactly on every artifact.
func EventFrequenciesView(v *wpp.ArtifactView, workers int) (map[trace.Event]uint64, error) {
	return frequencies(v, workers)
}

// PathProfileEntry is one row of a classic Ball–Larus path profile,
// recovered from the compressed trace.
type PathProfileEntry struct {
	Event trace.Event
	Count uint64
	// Cost is Count times the path's instruction count.
	Cost uint64
	// Fraction is Cost over total executed instructions.
	Fraction float64
}

// PathProfile recovers the classic path profile (path → frequency,
// weighted by cost) from the WPP, sorted hottest first. This is the
// paper's observation that a WPP subsumes a path profile: the aggregate
// view falls out of the complete trace.
func PathProfile(w *wpp.WPP) []PathProfileEntry {
	return pathProfile(EventFrequencies(w), w.PathCost, w.Instructions)
}

// PathProfileView recovers the path profile directly from a lazy view,
// chunk-parallel on `workers` goroutines. It matches PathProfile on the
// eagerly decoded artifact exactly.
func PathProfileView(v *wpp.ArtifactView, workers int) ([]PathProfileEntry, error) {
	freqs, err := EventFrequenciesView(v, workers)
	if err != nil {
		return nil, err
	}
	return pathProfile(freqs, v.PathCost, v.TotalInstructions()), nil
}

// pathProfile converts a frequency map into the sorted profile under
// the given cost model.
func pathProfile(freqs map[trace.Event]uint64, costOf func(trace.Event) uint64, total uint64) []PathProfileEntry {
	entries := make([]PathProfileEntry, 0, len(freqs))
	for e, n := range freqs {
		cost := n * costOf(e)
		var frac float64
		if total > 0 {
			frac = float64(cost) / float64(total)
		}
		entries = append(entries, PathProfileEntry{Event: e, Count: n, Cost: cost, Fraction: frac})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Cost != entries[j].Cost {
			return entries[i].Cost > entries[j].Cost
		}
		return entries[i].Event < entries[j].Event
	})
	return entries
}

// FuncProfileEntry aggregates a path profile to function granularity.
type FuncProfileEntry struct {
	Func     uint32
	Events   uint64
	Cost     uint64
	Fraction float64
}

// FuncProfile attributes execution cost to functions, recovered entirely
// from the compressed trace.
func FuncProfile(w *wpp.WPP) []FuncProfileEntry {
	return funcProfile(EventFrequencies(w), w.PathCost, w.Instructions)
}

// FuncProfileView attributes execution cost to functions directly from
// a lazy view, chunk-parallel on `workers` goroutines. It matches
// FuncProfile on the eagerly decoded artifact exactly.
func FuncProfileView(v *wpp.ArtifactView, workers int) ([]FuncProfileEntry, error) {
	freqs, err := EventFrequenciesView(v, workers)
	if err != nil {
		return nil, err
	}
	return funcProfile(freqs, v.PathCost, v.TotalInstructions()), nil
}

// funcProfile aggregates a frequency map to function granularity under
// the given cost model.
func funcProfile(freqs map[trace.Event]uint64, costOf func(trace.Event) uint64, total uint64) []FuncProfileEntry {
	byFunc := map[uint32]*FuncProfileEntry{}
	for e, n := range freqs {
		fe := byFunc[e.Func()]
		if fe == nil {
			fe = &FuncProfileEntry{Func: e.Func()}
			byFunc[e.Func()] = fe
		}
		fe.Events += n
		fe.Cost += n * costOf(e)
	}
	out := make([]FuncProfileEntry, 0, len(byFunc))
	for _, fe := range byFunc {
		if total > 0 {
			fe.Fraction = float64(fe.Cost) / float64(total)
		}
		out = append(out, *fe)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cost != out[j].Cost {
			return out[i].Cost > out[j].Cost
		}
		return out[i].Func < out[j].Func
	})
	return out
}
