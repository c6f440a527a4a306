package experiments

// OpenBench measures the open path itself: how long until an analysis
// tool has its first result in hand, eager decode versus the lazy
// mmap-style view. Two query shapes bracket the CLIs — the
// wppstats-style header report (functions, events, distinct paths,
// instructions: the view answers from its one-pass index without
// touching a single grammar) and the wpphot-style hot-subpath search
// (both sides do the full analysis; the view materializes one chunk per
// worker instead of holding the decoded artifact). Every row also
// cross-checks that both paths produce identical answers, so the
// trajectory can never pin a speedup bought with a wrong result. The
// eager path is wpp.Decode, which is the same view materialized in full,
// so the columns compare full materialization with lazy use.

import (
	"bytes"
	"fmt"
	"reflect"

	"repro/internal/hotpath"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// OpenBenchRow is one workload x format measurement.
type OpenBenchRow struct {
	Name string `json:"name"`
	// Format is the encoding extension: wpp1, wpp2, wpc1, wpc2.
	Format string `json:"format"`
	Bytes  int64  `json:"bytes"`
	Events uint64 `json:"events"`
	// Stats columns time the header query (time to first result): full
	// decode for the eager path, index-only open for the view.
	EagerStatsMS float64 `json:"eager_stats_ms"`
	ViewStatsMS  float64 `json:"view_stats_ms"`
	// Hot columns time open plus the minimal-hot-subpath search.
	EagerHotMS float64 `json:"eager_hot_ms"`
	ViewHotMS  float64 `json:"view_hot_ms"`
	// Alloc columns record bytes allocated (KB) during one header query
	// on each path — the memory cost of the first answer: the eager path
	// builds every grammar to read four counters, the view builds none.
	EagerAllocKB uint64 `json:"eager_alloc_kb"`
	ViewAllocKB  uint64 `json:"view_alloc_kb"`
	// Identical confirms header fields, event frequencies, and hot
	// subpaths agree between the two paths.
	Identical bool `json:"identical"`
}

// OpenLayout is table M1 and the BENCH_openpath.json trajectory.
var OpenLayout = Layout[OpenBenchRow]{
	Schema: "wpp/openbench/v2",
	ID:     "M1",
	Title: func(t *Trajectory[OpenBenchRow]) string {
		c := t.Config
		return fmt.Sprintf("lazy view opens vs eager decode, scale=%s chunk=%s (best of %s)", c["scale"], c["chunk"], c["reps"])
	},
	Notes: func(*Trajectory[OpenBenchRow]) []string {
		return []string{
			"stats columns time the header query (time to first result): eager pays a full decode, the view answers from its index",
			"hot columns time open + minimal-hot-subpath search; KB columns are bytes allocated during the header query",
			"identical=true means events, frequencies, and hot subpaths agree between the paths on this row",
		}
	},
	Columns: []Column[OpenBenchRow]{
		text("workload", func(r OpenBenchRow) string { return r.Name }),
		text("fmt", func(r OpenBenchRow) string { return r.Format }),
		num("bytes", "%.0f", func(r OpenBenchRow) float64 { return float64(r.Bytes) }),
		num("eager stats ms", "%.4f", func(r OpenBenchRow) float64 { return r.EagerStatsMS }),
		tracked("view stats ms", "%.4f", func(r OpenBenchRow) float64 { return r.ViewStatsMS }),
		text("speedup", func(r OpenBenchRow) string {
			if r.ViewStatsMS <= 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.1fx", r.EagerStatsMS/r.ViewStatsMS)
		}),
		num("eager hot ms", "%.3f", func(r OpenBenchRow) float64 { return r.EagerHotMS }),
		tracked("view hot ms", "%.3f", func(r OpenBenchRow) float64 { return r.ViewHotMS }),
		num("eager KB", "%.0f", func(r OpenBenchRow) float64 { return float64(r.EagerAllocKB) }),
		num("view KB", "%.0f", func(r OpenBenchRow) float64 { return float64(r.ViewAllocKB) }),
		text("identical", func(r OpenBenchRow) string { return fmt.Sprint(r.Identical) }),
	},
	Key: func(r OpenBenchRow) string { return r.Name + "." + r.Format },
}

// benchSink defeats dead-code elimination of measured queries.
var benchSink uint64

// openBenchOpts is the hot-subpath query both paths run; matches the
// wpphot defaults except the threshold, lowered so every bundled
// workload yields a nonempty answer worth comparing.
var openBenchOpts = hotpath.Options{MinLen: 4, MaxLen: 16, Threshold: 0.005}

// OpenBench builds every named workload at the given scale, encodes it
// in all four registered formats, and measures both query shapes on
// each encoding, best of reps.
func OpenBench(scale Scale, names []string, chunkSize uint64, reps int) (*Trajectory[OpenBenchRow], error) {
	reps = max(reps, 1)
	res := OpenLayout.Start(map[string]string{"scale": scale.String(), "chunk": fmt.Sprint(chunkSize), "reps": fmt.Sprint(reps)})
	for _, name := range names {
		encs, err := encodeAllFormats(name, scale, chunkSize)
		if err != nil {
			return nil, err
		}
		for _, f := range []string{"wpp1", "wpp2", "wpc1", "wpc2"} {
			row, err := openBenchRow(name, f, encs[f], reps)
			if err != nil {
				return nil, fmt.Errorf("openbench %s.%s: %w", name, f, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// encodeAllFormats runs one workload traced and returns its four
// encodings keyed by extension, built exactly as the golden corpus is:
// the monolithic grammar from the online per-event build, the chunked
// artifact from wpp.New at the given chunk size on one worker.
func encodeAllFormats(name string, scale Scale, chunkSize uint64) (map[string][]byte, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	art, err := runTraced(w, scale)
	if err != nil {
		return nil, err
	}
	fnames := make([]string, len(art.prog.Funcs))
	for i, f := range art.prog.Funcs {
		fnames[i] = f.Name
	}
	cb := iwpp.New(fnames, art.nums, iwpp.BuildOptions{ChunkSize: chunkSize, Workers: 1})
	for _, e := range art.events {
		cb.Add(e)
	}
	chunked := cb.Finish(art.stats.Instructions).(*iwpp.ChunkedWPP)

	out := make(map[string][]byte, 4)
	for _, f := range []struct {
		ext     string
		version uint8
		chunked bool
	}{
		{"wpp1", iwpp.FormatV1, false},
		{"wpp2", iwpp.FormatV2, false},
		{"wpc1", iwpp.FormatV1, true},
		{"wpc2", iwpp.FormatV2, true},
	} {
		var a iwpp.Artifact = art.wpp
		if f.chunked {
			a = chunked
		}
		iwpp.SetVersion(a, f.version)
		var buf bytes.Buffer
		if _, err := a.Encode(&buf); err != nil {
			return nil, fmt.Errorf("%s.%s: %w", name, f.ext, err)
		}
		out[f.ext] = buf.Bytes()
	}
	return out, nil
}

func openBenchRow(name, format string, enc []byte, reps int) (OpenBenchRow, error) {
	row := OpenBenchRow{Name: name, Format: format, Bytes: int64(len(enc))}

	eagerStats := func() error {
		a, err := iwpp.Decode(enc)
		if err != nil {
			return err
		}
		benchSink += a.NumEvents() + a.TotalInstructions() + uint64(a.DistinctPaths())
		return nil
	}
	viewStats := func() error {
		v, err := iwpp.NewView(enc, nil)
		if err != nil {
			return err
		}
		benchSink += v.NumEvents() + v.TotalInstructions() + uint64(v.DistinctPaths()) + uint64(len(v.FuncTable()))
		return v.Close()
	}
	eagerHot := func() ([]hotpath.Subpath, error) {
		a, err := iwpp.Decode(enc)
		if err != nil {
			return nil, err
		}
		return hotpath.Find(a, openBenchOpts, 0)
	}
	viewHot := func() (*iwpp.ArtifactView, []hotpath.Subpath, error) {
		v, err := iwpp.NewView(enc, nil)
		if err != nil {
			return nil, nil, err
		}
		subs, err := hotpath.Find(v, openBenchOpts, 0)
		if err != nil {
			v.Close()
			return nil, nil, err
		}
		return v, subs, nil
	}

	// Parity first: both pipelines must agree before any timing counts.
	eagerArt, err := iwpp.Decode(enc)
	if err != nil {
		return row, err
	}
	row.Events = eagerArt.NumEvents()
	eagerFreqs, err := hotpath.EventFrequencies(eagerArt, 0)
	if err != nil {
		return row, err
	}
	eagerSubs, err := hotpath.Find(eagerArt, openBenchOpts, 0)
	if err != nil {
		return row, err
	}
	v, viewSubs, err := viewHot()
	if err != nil {
		return row, err
	}
	viewFreqs, err := hotpath.EventFrequencies(v, 0)
	if err != nil {
		v.Close()
		return row, err
	}
	row.Identical = v.NumEvents() == eagerArt.NumEvents() &&
		v.TotalInstructions() == eagerArt.TotalInstructions() &&
		v.DistinctPaths() == eagerArt.DistinctPaths() &&
		reflect.DeepEqual(eagerFreqs, viewFreqs) &&
		reflect.DeepEqual(eagerSubs, viewSubs)
	if err := v.Close(); err != nil {
		return row, err
	}

	best, err := bestOf(reps, eagerStats, viewStats,
		func() error { _, err := eagerHot(); return err },
		func() error {
			v, _, err := viewHot()
			if err != nil {
				return err
			}
			return v.Close()
		})
	if err != nil {
		return row, err
	}
	row.EagerStatsMS = 1e3 * best[0].Seconds()
	row.ViewStatsMS = 1e3 * best[1].Seconds()
	row.EagerHotMS = 1e3 * best[2].Seconds()
	row.ViewHotMS = 1e3 * best[3].Seconds()

	ea, err := allocBytes(eagerStats)
	if err != nil {
		return row, err
	}
	va, err := allocBytes(viewStats)
	if err != nil {
		return row, err
	}
	row.EagerAllocKB, row.ViewAllocKB = ea/1024, va/1024
	return row, nil
}
