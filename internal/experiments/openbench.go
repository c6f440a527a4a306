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
	"runtime"
	"time"

	"repro/internal/hotpath"
	"repro/internal/trace"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// OpenBenchSchema identifies the persisted trajectory format.
const OpenBenchSchema = "wpp/openbench/v1"

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

// OpenBenchResult is the persisted trajectory point.
type OpenBenchResult struct {
	Schema    string         `json:"schema"`
	Scale     string         `json:"scale"`
	ChunkSize uint64         `json:"chunk_size"`
	Reps      int            `json:"reps"`
	Rows      []OpenBenchRow `json:"rows"`
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
func OpenBench(scale Scale, names []string, chunkSize uint64, reps int) (*OpenBenchResult, *Table, error) {
	if reps < 1 {
		reps = 1
	}
	res := &OpenBenchResult{Schema: OpenBenchSchema, Scale: scale.String(), ChunkSize: chunkSize, Reps: reps}
	for _, name := range names {
		encs, err := encodeAllFormats(name, scale, chunkSize)
		if err != nil {
			return nil, nil, err
		}
		for _, f := range []string{"wpp1", "wpp2", "wpc1", "wpc2"} {
			row, err := openBenchRow(name, f, encs[f], reps)
			if err != nil {
				return nil, nil, fmt.Errorf("openbench %s.%s: %w", name, f, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, res.Table(), nil
}

// encodeAllFormats runs one workload traced and returns its four
// encodings keyed by extension, built exactly as the golden corpus is:
// the monolithic grammar from the online per-event build, the chunked
// artifact from the chunked builder at the given chunk size.
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
	cb := iwpp.NewChunkedBuilder(fnames, art.nums, chunkSize)
	for _, e := range art.events {
		cb.Add(e)
	}
	chunked := cb.Finish(art.stats.Instructions)

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
		switch t := a.(type) {
		case *iwpp.WPP:
			t.Version = f.version
		case *iwpp.ChunkedWPP:
			t.Version = f.version
		}
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
		switch t := a.(type) {
		case *iwpp.WPP:
			return hotpath.Find(t, openBenchOpts)
		case *iwpp.ChunkedWPP:
			return hotpath.FindChunked(t, openBenchOpts, 0)
		}
		return nil, fmt.Errorf("unknown artifact type %T", a)
	}
	viewHot := func() (*iwpp.ArtifactView, []hotpath.Subpath, error) {
		v, err := iwpp.NewView(enc, nil)
		if err != nil {
			return nil, nil, err
		}
		subs, err := hotpath.FindView(v, openBenchOpts, 0)
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
	var eagerFreqs map[trace.Event]uint64
	var eagerSubs []hotpath.Subpath
	switch t := eagerArt.(type) {
	case *iwpp.WPP:
		eagerFreqs = hotpath.EventFrequencies(t)
		eagerSubs, err = hotpath.Find(t, openBenchOpts)
	case *iwpp.ChunkedWPP:
		eagerFreqs = hotpath.ChunkedEventFrequencies(t, 0)
		eagerSubs, err = hotpath.FindChunked(t, openBenchOpts, 0)
	}
	if err != nil {
		return row, err
	}
	v, viewSubs, err := viewHot()
	if err != nil {
		return row, err
	}
	viewFreqs, err := hotpath.EventFrequenciesView(v, 0)
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

	var bestES, bestVS, bestEH, bestVH time.Duration
	for i := 0; i < reps; i++ {
		d, err := timeOnceErr(eagerStats)
		if err != nil {
			return row, err
		}
		if i == 0 || d < bestES {
			bestES = d
		}
		if d, err = timeOnceErr(viewStats); err != nil {
			return row, err
		}
		if i == 0 || d < bestVS {
			bestVS = d
		}
		if d, err = timeOnceErr(func() error { _, err := eagerHot(); return err }); err != nil {
			return row, err
		}
		if i == 0 || d < bestEH {
			bestEH = d
		}
		if d, err = timeOnceErr(func() error {
			v, _, err := viewHot()
			if err != nil {
				return err
			}
			return v.Close()
		}); err != nil {
			return row, err
		}
		if i == 0 || d < bestVH {
			bestVH = d
		}
	}
	row.EagerStatsMS = 1e3 * bestES.Seconds()
	row.ViewStatsMS = 1e3 * bestVS.Seconds()
	row.EagerHotMS = 1e3 * bestEH.Seconds()
	row.ViewHotMS = 1e3 * bestVH.Seconds()

	ea, err := allocDuring(eagerStats)
	if err != nil {
		return row, err
	}
	va, err := allocDuring(viewStats)
	if err != nil {
		return row, err
	}
	row.EagerAllocKB, row.ViewAllocKB = ea/1024, va/1024
	return row, nil
}

// timeOnceErr times one run of f, propagating its error.
func timeOnceErr(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// allocDuring reports bytes allocated while f runs, with a GC fence
// before the baseline so prior garbage is not charged to f.
func allocDuring(f func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := f(); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, nil
}

// Table renders the trajectory point (table M1 in EXPERIMENTS.md).
func (r *OpenBenchResult) Table() *Table {
	tbl := &Table{
		ID:    "M1",
		Title: fmt.Sprintf("lazy view opens vs eager decode, scale=%s chunk=%d (best of %d)", r.Scale, r.ChunkSize, r.Reps),
		Header: []string{"workload", "fmt", "bytes", "eager stats ms", "view stats ms", "speedup",
			"eager hot ms", "view hot ms", "eager KB", "view KB", "identical"},
		Notes: []string{
			"stats columns time the header query (time to first result): eager pays a full decode, the view answers from its index",
			"hot columns time open + minimal-hot-subpath search; KB columns are bytes allocated during the header query",
			"identical=true means events, frequencies, and hot subpaths agree between the paths on this row",
		},
	}
	for _, w := range r.Rows {
		speedup := "n/a"
		if w.ViewStatsMS > 0 {
			speedup = fmt.Sprintf("%.1fx", w.EagerStatsMS/w.ViewStatsMS)
		}
		tbl.Rows = append(tbl.Rows, []string{
			w.Name, w.Format,
			fmt.Sprint(w.Bytes),
			fmt.Sprintf("%.4f", w.EagerStatsMS),
			fmt.Sprintf("%.4f", w.ViewStatsMS),
			speedup,
			fmt.Sprintf("%.3f", w.EagerHotMS),
			fmt.Sprintf("%.3f", w.ViewHotMS),
			fmt.Sprint(w.EagerAllocKB),
			fmt.Sprint(w.ViewAllocKB),
			fmt.Sprint(w.Identical),
		})
	}
	return tbl
}

// CompareOpenBench diffs two trajectory points row by row on the two
// timing queries, benchstat-style.
func CompareOpenBench(old, cur *OpenBenchResult) *Table {
	tbl := &Table{
		ID:     "M1-diff",
		Title:  "open-path trajectory vs previous run",
		Header: []string{"workload", "fmt", "view stats old ms", "new ms", "delta", "view hot old ms", "new ms", "delta"},
	}
	prev := map[string]OpenBenchRow{}
	for _, r := range old.Rows {
		prev[r.Name+"."+r.Format] = r
	}
	for _, r := range cur.Rows {
		o, ok := prev[r.Name+"."+r.Format]
		if !ok {
			continue
		}
		tbl.Rows = append(tbl.Rows, []string{
			r.Name, r.Format,
			fmt.Sprintf("%.4f", o.ViewStatsMS), fmt.Sprintf("%.4f", r.ViewStatsMS), pctDelta(o.ViewStatsMS, r.ViewStatsMS),
			fmt.Sprintf("%.3f", o.ViewHotMS), fmt.Sprintf("%.3f", r.ViewHotMS), pctDelta(o.ViewHotMS, r.ViewHotMS),
		})
	}
	return tbl
}

func pctDelta(old, cur float64) string {
	if old <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(cur-old)/old)
}
