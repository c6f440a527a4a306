package hotpath

import (
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
	"repro/internal/wpp"
)

// equivChunkSize slices every bundled workload's Small trace into many
// chunks, so the equivalence suite exercises real boundary windows.
const equivChunkSize = 256

// workloadBoth builds one bundled workload at Small scale into both
// artifact forms from a single interpreter run.
func workloadBoth(t *testing.T, name string) (*wpp.WPP, *wpp.ChunkedWPP) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := wlc.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	var mb wpp.Builder
	var cb wpp.Builder
	m, err := interp.New(p, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) {
		mb.Add(e)
		cb.Add(e)
	})})
	if err != nil {
		t.Fatal(err)
	}
	names := p.FuncNames()
	mb = wpp.New(names, m.Numberings(), wpp.BuildOptions{})
	cb = wpp.New(names, m.Numberings(), wpp.BuildOptions{ChunkSize: equivChunkSize, Workers: 1})
	if _, err := m.Run("main", w.Small); err != nil {
		t.Fatal(err)
	}
	return mb.Finish(m.Stats().Instructions).(*wpp.WPP), cb.Finish(m.Stats().Instructions).(*wpp.ChunkedWPP)
}

// TestFoldEquivalenceOnWorkloads is the engine's keystone property
// test: on every bundled workload, the grammar analyses must reproduce
// the decompressed answers exactly. The oracle is FindByScan, which
// expands the grammar and scans the raw event stream — it never touches
// the engine. Find (monolithic, one chunk) and FindChunked (many chunks,
// summed into one accumulator with seam windows added, at several
// worker counts) must both match it, and the event frequencies must
// match a direct walk count.
func TestFoldEquivalenceOnWorkloads(t *testing.T) {
	opts := Options{MinLen: 2, MaxLen: 6, Threshold: 0.01}
	workerCounts := []int{1, 2, 4}
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, cw := workloadBoth(t, name)

			oracle, err := FindByScan(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Find(w, opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, oracle) {
				t.Fatalf("Find diverges from scan oracle:\n got %v\nwant %v", got, oracle)
			}
			for _, nw := range workerCounts {
				cgot, err := FindChunked(cw, opts, nw)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(cgot, oracle) {
					t.Fatalf("FindChunked(workers=%d) diverges from scan oracle:\n got %v\nwant %v", nw, cgot, oracle)
				}
			}

			// Event frequencies against a direct walk of the expanded trace.
			want := map[trace.Event]uint64{}
			w.Walk(func(e trace.Event) bool { want[e]++; return true })
			if got := freqsOf(t, w, 1); !reflect.DeepEqual(got, want) {
				t.Fatalf("EventFrequencies diverges from walk count")
			}
			for _, nw := range workerCounts {
				if got := freqsOf(t, cw, nw); !reflect.DeepEqual(got, want) {
					t.Fatalf("EventFrequencies(chunked, workers=%d) diverges from walk count", nw)
				}
			}
		})
	}
}

// TestSpectrumEquivalenceOnWorkloads checks the spectra layer on top of
// the event frequencies: a workload's spectrum compared against itself
// must report zero divergence and no exclusive paths, on every bundled
// workload.
func TestSpectrumEquivalenceOnWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		w, _ := workloadBoth(t, name)
		d := spectraOf(t, w, w)
		if !d.Identical() {
			t.Fatalf("%s: self-comparison not identity: %d differing entries", name, len(d.Entries))
		}
		if d.SharedPaths != d.TotalPaths {
			t.Fatalf("%s: shared %d != total %d on self-comparison", name, d.SharedPaths, d.TotalPaths)
		}
	}
}
