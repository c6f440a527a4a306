package hotpath

import (
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/wpp"
)

// EventFrequencies returns the execution count of every distinct acyclic
// path event, computed from the grammars without decompressing the
// trace: each chunk on one of `workers` goroutines (<=0 means
// GOMAXPROCS) sums the derivation-tree use counts of the rules whose
// bodies hold each terminal, and its map is added to one accumulator as
// the chunk finishes. Sums do not depend on order, so every worker count
// and artifact shape of one event stream yields the same map. Only a
// lazy view's chunks can fail, with a *wpp.ViewError.
func EventFrequencies(src Source, workers int) (map[trace.Event]uint64, error) {
	var mu sync.Mutex
	freqs := map[trace.Event]uint64{} // the accumulator
	err := engine.EachAnalysis(src, workers, func(_ int, a *engine.Analysis) error {
		m := make(map[trace.Event]uint64)
		a.Terminals(func(v, uses uint64) { m[trace.Event(v)] += uses })
		mu.Lock()
		defer mu.Unlock()
		if len(freqs) == 0 {
			freqs, m = m, freqs // the first counts become the accumulator
		}
		for e, n := range m {
			freqs[e] += n
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return freqs, nil
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

// PathProfileView recovers the classic path profile (path → frequency,
// weighted by cost) from the compressed trace, sorted hottest first, on
// `workers` goroutines as EventFrequencies. This is the paper's
// observation that a WPP subsumes a path profile: the aggregate view
// falls out of the complete trace.
func PathProfileView(src Source, workers int) ([]PathProfileEntry, error) {
	freqs, err := EventFrequencies(src, workers)
	if err != nil {
		return nil, err
	}
	total := src.TotalInstructions()
	entries := make([]PathProfileEntry, 0, len(freqs))
	for e, n := range freqs {
		cost := n * src.PathCost(e)
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
	return entries, nil
}

// PathProfile is PathProfileView on a monolithic WPP, which cannot fail,
// kept because the perfbench module calls it by name.
func PathProfile(w *wpp.WPP) []PathProfileEntry {
	entries, _ := PathProfileView(w, 1)
	return entries
}

// FuncProfileEntry aggregates a path profile to function granularity.
type FuncProfileEntry struct {
	Func     uint32
	Events   uint64
	Cost     uint64
	Fraction float64
}

// FuncProfile attributes execution cost to functions, recovered
// entirely from the compressed trace on `workers` goroutines as
// EventFrequencies, sorted costliest first.
func FuncProfile(src Source, workers int) ([]FuncProfileEntry, error) {
	freqs, err := EventFrequencies(src, workers)
	if err != nil {
		return nil, err
	}
	byFunc := map[uint32]*FuncProfileEntry{}
	for e, n := range freqs {
		fe := byFunc[e.Func()]
		if fe == nil {
			fe = &FuncProfileEntry{Func: e.Func()}
			byFunc[e.Func()] = fe
		}
		fe.Events += n
		fe.Cost += n * src.PathCost(e)
	}
	total := src.TotalInstructions()
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
	return out, nil
}
