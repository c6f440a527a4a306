package hotpath

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/interp"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
	"repro/internal/wpp"
)

// syntheticChunked mirrors syntheticWPP for the chunked pipeline.
func syntheticChunked(ids []uint64, chunkSize uint64) *wpp.ChunkedWPP {
	b := wpp.New([]string{"f"}, nil, wpp.BuildOptions{ChunkSize: chunkSize, Workers: 1})
	for _, id := range ids {
		b.Add(trace.MakeEvent(0, id))
	}
	return b.Finish(uint64(len(ids))).(*wpp.ChunkedWPP)
}

// programBoth builds a monolithic and a chunked WPP from one interpreter
// run, so the chunked analyses can be checked against the monolithic
// oracle on a real program with real path costs.
func programBoth(t testing.TB, src string, chunkSize uint64, args ...int64) (*wpp.WPP, *wpp.ChunkedWPP) {
	t.Helper()
	p, err := wlc.Compile(src)
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
	cb = wpp.New(names, m.Numberings(), wpp.BuildOptions{ChunkSize: chunkSize, Workers: 1})
	if _, err := m.Run("main", args...); err != nil {
		t.Fatal(err)
	}
	return mb.Finish(m.Stats().Instructions).(*wpp.WPP), cb.Finish(m.Stats().Instructions).(*wpp.ChunkedWPP)
}

// TestFindChunkedOracle: FindChunked must agree exactly with the
// monolithic Find over the same stream, for chunk sizes that slice
// windows every way — including chunkSize 1, where every multi-event
// window crosses a boundary, and a chunk larger than the whole trace.
func TestFindChunkedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	trials := 30
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		n := 30 + rng.Intn(400)
		alpha := 2 + rng.Intn(6)
		ids := make([]uint64, n)
		for i := range ids {
			if rng.Intn(3) > 0 && i >= 4 {
				ids[i] = ids[i-4]
			} else {
				ids[i] = uint64(rng.Intn(alpha))
			}
		}
		opts := Options{
			MinLen:    1 + rng.Intn(3),
			MaxLen:    3 + rng.Intn(6),
			Threshold: []float64{0.01, 0.05, 0.2}[rng.Intn(3)],
		}
		mono := syntheticWPP(ids)
		want, err := Find(mono, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range []uint64{1, 2, 7, 64, uint64(n), uint64(n) + 100} {
			c := syntheticChunked(ids, cs)
			for _, workers := range []int{1, 4} {
				got, err := FindChunked(c, opts, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d (n=%d chunk=%d workers=%d opts=%+v):\n chunked=%v\n mono=%v",
						trial, n, cs, workers, opts, render(got), render(want))
				}
			}
		}
	}
}

func TestFindChunkedOracleOnRealProgram(t *testing.T) {
	src := `
func step(x) {
    if x % 2 == 0 { return x / 2; }
    return 3 * x + 1;
}
func main(n) {
    var i = 1;
    var s = 0;
    while i <= n {
        var x = i;
        while x != 1 { x = step(x); s = s + 1; }
        i = i + 1;
    }
    return s;
}`
	opts := Options{MinLen: 2, MaxLen: 8, Threshold: 0.01}
	for _, cs := range []uint64{1, 37, 500} {
		mono, chunked := programBoth(t, src, cs, 60)
		want, err := Find(mono, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FindChunked(chunked, opts, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk=%d:\n chunked=%v\n mono=%v", cs, render(got), render(want))
		}
		if len(got) == 0 {
			t.Fatal("collatz driver has no hot subpaths at 1%")
		}
	}
}

func TestFindChunkedValidation(t *testing.T) {
	c := syntheticChunked([]uint64{1, 2, 3}, 2)
	if _, err := FindChunked(c, Options{MinLen: 0, MaxLen: 2, Threshold: 0.1}, 1); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestFindChunkedEmpty(t *testing.T) {
	c := syntheticChunked(nil, 4)
	got, err := FindChunked(c, Options{MinLen: 2, MaxLen: 4, Threshold: 0.1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty trace produced %+v", got)
	}
}

// TestChunkedEventFrequenciesOracle: the merged per-chunk frequency map
// must equal the monolithic one for every chunk size and worker count.
func TestChunkedEventFrequenciesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(300)
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64(rng.Intn(5))
		}
		want := freqsOf(t, syntheticWPP(ids), 1)
		for _, cs := range []uint64{1, 3, 50, uint64(n) + 1} {
			c := syntheticChunked(ids, cs)
			for _, workers := range []int{1, 4} {
				got := freqsOf(t, c, workers)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d chunk=%d workers=%d: %v != %v", trial, cs, workers, got, want)
				}
			}
		}
	}
}

// TestFindChunkedCrossingOnly uses a stream whose only hot pattern
// straddles every chunk boundary: with chunkSize 3 and period-3 pattern
// ABC, the window (C,A) exists only across boundaries.
func TestFindChunkedCrossingOnly(t *testing.T) {
	var ids []uint64
	for i := 0; i < 60; i++ {
		ids = append(ids, 1, 2, 3)
	}
	opts := Options{MinLen: 2, MaxLen: 2, Threshold: 0.2}
	want, err := Find(syntheticWPP(ids), opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FindChunked(syntheticChunked(ids, 3), opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("crossing windows miscounted:\n chunked=%v\n mono=%v", render(got), render(want))
	}
	// The (3,1) window occurs 59 times, purely across boundaries.
	found := false
	for _, sp := range got {
		if len(sp.Events) == 2 && sp.Events[0].Path() == 3 && sp.Events[1].Path() == 1 {
			found = true
			if sp.Count != 59 {
				t.Fatalf("boundary window counted %d times, want 59", sp.Count)
			}
		}
	}
	if !found {
		t.Fatalf("boundary-only window missing from %v", render(got))
	}
}

// TestFindChunkedDeterministicAcrossWorkers: on a source of at least 64
// chunks, the analyses that add each chunk's result to one accumulator
// as the chunk finishes — Find, EventFrequencies, PathProfileView and
// CompareSpectra — must return exactly the workers=1 answer, order
// included, at every worker count and on every repeat, whatever order
// the chunks finish in; and Find must match the scan oracle.
func TestFindChunkedDeterministicAcrossWorkers(t *testing.T) {
	wl, err := workloads.ByName("lexer")
	if err != nil {
		t.Fatal(err)
	}
	mono, c := programBoth(t, wl.Source, 128, wl.Small)
	_, other := programBoth(t, wl.Source, 128, wl.Small/2)
	if c.NumChunks() < 64 {
		t.Fatalf("source has %d chunks, want at least 64", c.NumChunks())
	}
	opts := Options{MinLen: 2, MaxLen: 6, Threshold: 0.01}
	type answers struct {
		hot     []Subpath
		freqs   map[trace.Event]uint64
		profile []PathProfileEntry
		spectra *SpectrumDiff
	}
	run := func(workers int) answers {
		var a answers
		var err error
		if a.hot, err = Find(c, opts, workers); err != nil {
			t.Fatal(err)
		}
		a.freqs = freqsOf(t, c, workers)
		if a.profile, err = PathProfileView(c, workers); err != nil {
			t.Fatal(err)
		}
		if a.spectra, err = CompareSpectra(c, other, workers); err != nil {
			t.Fatal(err)
		}
		return a
	}
	base := run(1)
	oracle, err := FindByScan(mono, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(oracle) == 0 || !reflect.DeepEqual(base.hot, oracle) {
		t.Fatalf("Find diverges from the scan oracle:\n got %v\nwant %v", render(base.hot), render(oracle))
	}
	if base.spectra.Identical() {
		t.Fatal("runs at two scales compare identical")
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for rep := 0; rep < 10; rep++ {
			if got := run(workers); !reflect.DeepEqual(got, base) {
				t.Fatalf("workers=%d rep=%d: result differs from workers=1", workers, rep)
			}
		}
	}
}

// heapSource wraps a source and records the largest live heap, after a
// full collection, seen as a chunk is loaded.
type heapSource struct {
	engine.Source
	peak uint64
}

func (s *heapSource) Chunk(i int) (*sequitur.Snapshot, error) {
	s.peak = max(s.peak, liveHeap())
	return s.Source.Chunk(i)
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestChunkedSearchLiveMemory: the chunk loop each pass of a chunked
// search runs adds each chunk's window counts to one accumulator as the
// chunk finishes, so what it holds at any chunk load is at most about
// what it returns. Holding every chunk's tries until one merge at the end
// costs several times that. The unpruned count, the larger, is measured.
func TestChunkedSearchLiveMemory(t *testing.T) {
	wl, err := workloads.ByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{MinLen: 4, MaxLen: 16, Threshold: 0.01}
	for _, cs := range []uint64{256, 1024, 4096} {
		_, c := programBoth(t, wl.Source, cs, wl.Small)
		src := &heapSource{Source: c}
		runtime.GC() // a second collection empties the trie pool
		before := liveHeap()
		tr, err := countWindows(src, 1, pass{minLen: opts.MinLen, maxLen: opts.MaxLen}, noopMetrics)
		if err != nil {
			t.Fatal(err)
		}
		withTries := liveHeap()
		runtime.KeepAlive(tr)
		tr = nil
		held := withTries - liveHeap()
		peak := src.peak - min(src.peak, before)
		t.Logf("chunk %d: %d chunks, peak %d B, tries %d B, ratio %.2f", cs, c.NumChunks(), peak, held, float64(peak)/float64(held))
		if c.NumChunks() < 2 {
			t.Fatalf("chunk %d: %d chunks, want several", cs, c.NumChunks())
		}
		if float64(peak) > 1.5*float64(held) {
			t.Fatalf("chunk %d: live heap grew by %d B during the search, more than 1.5x the %d B its tries hold", cs, peak, held)
		}
	}
}
