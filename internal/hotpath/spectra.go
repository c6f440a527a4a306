package hotpath

import (
	"sort"

	"repro/internal/trace"
)

// Path spectra comparison (Reps, Ball, Das & Larus, FSE 1997 — the
// application family the WPP paper positions itself against): two runs'
// path-frequency spectra are compared to localize behavioral differences.
// Because a WPP subsumes the spectrum, the comparison runs directly on
// two compressed traces.

// SpectrumDiffEntry describes one acyclic path whose frequency differs
// between two runs.
type SpectrumDiffEntry struct {
	Event trace.Event
	// CountA and CountB are the path's execution counts in each run.
	CountA, CountB uint64
	// OnlyA/OnlyB mark paths exercised in exactly one run — the signal
	// spectra-based debugging looks for first.
	OnlyA, OnlyB bool
}

// SpectrumDiff summarizes the comparison of two runs' path spectra.
type SpectrumDiff struct {
	// Entries lists paths with differing counts, the largest absolute
	// difference first; ties break toward paths exercised in only one
	// run, then by event.
	Entries []SpectrumDiffEntry
	// SharedPaths counts paths exercised (with any frequency) in both
	// runs; TotalPaths counts paths exercised in either.
	SharedPaths, TotalPaths int
}

// CompareSpectra computes the path-spectrum difference of two runs
// without decompressing either, each side's frequencies on `workers`
// goroutines as EventFrequencies, so any two artifact shapes compare.
// The two runs must come from the same compiled program for the event
// IDs to be comparable; callers are responsible for that (as with any
// spectra comparison).
func CompareSpectra(a, b Source, workers int) (*SpectrumDiff, error) {
	fa, err := EventFrequencies(a, workers)
	if err != nil {
		return nil, err
	}
	fb, err := EventFrequencies(b, workers)
	if err != nil {
		return nil, err
	}
	diff := &SpectrumDiff{}
	seen := map[trace.Event]bool{}
	for e, ca := range fa {
		seen[e] = true
		cb := fb[e]
		if cb > 0 {
			diff.SharedPaths++
		}
		if ca != cb {
			diff.Entries = append(diff.Entries, SpectrumDiffEntry{
				Event: e, CountA: ca, CountB: cb, OnlyB: false, OnlyA: cb == 0,
			})
		}
	}
	for e, cb := range fb {
		if seen[e] {
			continue
		}
		seen[e] = true
		diff.Entries = append(diff.Entries, SpectrumDiffEntry{Event: e, CountB: cb, OnlyB: true})
	}
	diff.TotalPaths = len(seen)
	sort.Slice(diff.Entries, func(i, j int) bool {
		di := absDiff(diff.Entries[i].CountA, diff.Entries[i].CountB)
		dj := absDiff(diff.Entries[j].CountA, diff.Entries[j].CountB)
		if di != dj {
			return di > dj
		}
		oi := diff.Entries[i].OnlyA || diff.Entries[i].OnlyB
		oj := diff.Entries[j].OnlyA || diff.Entries[j].OnlyB
		if oi != oj {
			return oi
		}
		return diff.Entries[i].Event < diff.Entries[j].Event
	})
	return diff, nil
}

// Identical reports whether the two spectra match exactly.
func (d *SpectrumDiff) Identical() bool { return len(d.Entries) == 0 }

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
