package wpp

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
)

// workloadEvents captures each workload's Small-scale event stream once;
// the equivalence tests replay it into many builder configurations.
var workloadEvents = struct {
	sync.Mutex
	streams map[string][]trace.Event
	instrs  map[string]uint64
}{streams: map[string][]trace.Event{}, instrs: map[string]uint64{}}

func eventsFor(t testing.TB, name string) ([]trace.Event, uint64) {
	t.Helper()
	workloadEvents.Lock()
	defer workloadEvents.Unlock()
	if ev, ok := workloadEvents.streams[name]; ok {
		return ev, workloadEvents.instrs[name]
	}
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := wlc.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) {
		events = append(events, e)
	})})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("main", w.Small); err != nil {
		t.Fatal(err)
	}
	workloadEvents.streams[name] = events
	workloadEvents.instrs[name] = m.Stats().Instructions
	return events, m.Stats().Instructions
}

func feedReference(events []trace.Event, instrs, chunkSize uint64) *ChunkedWPP {
	b := newRefBuilder(funcNames(events), nil, chunkSize)
	for _, e := range events {
		b.Add(e)
	}
	return b.Finish(instrs)
}

func feedParallel(events []trace.Event, instrs, chunkSize uint64, workers int) *ChunkedWPP {
	b := NewParallelChunkedBuilder(funcNames(events), nil, chunkSize, ParallelOptions{Workers: workers})
	for _, e := range events {
		b.Add(e)
	}
	return b.Finish(instrs)
}

func encodeChunked(t testing.TB, c *ChunkedWPP) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func expand(c *ChunkedWPP) []trace.Event {
	var out []trace.Event
	c.Walk(func(e trace.Event) bool { out = append(out, e); return true })
	return out
}

// TestParallelEquivalence is the determinism keystone: for every
// workload, several chunk sizes, and worker counts 1/2/8, the parallel
// builder's artifact must be byte-identical to the reference build's
// — same chunks, stats, encoded size, encoding, and full expansion.
func TestParallelEquivalence(t *testing.T) {
	chunkSizes := []uint64{1, 64, 1000, 1 << 20}
	workerCounts := []int{1, 2, 8}
	for _, name := range workloads.Names() {
		events, instrs := eventsFor(t, name)
		for _, cs := range chunkSizes {
			seq := feedReference(events, instrs, cs)
			seqBytes := encodeChunked(t, seq)
			seqExp := expand(seq)
			for _, nw := range workerCounts {
				par := feedParallel(events, instrs, cs, nw)
				if !reflect.DeepEqual(par.Chunks, seq.Chunks) {
					t.Fatalf("%s chunk=%d workers=%d: chunks differ from the reference", name, cs, nw)
				}
				if got, want := par.Stats(), seq.Stats(); got != want {
					t.Fatalf("%s chunk=%d workers=%d: stats %+v != %+v", name, cs, nw, got, want)
				}
				if got, want := par.EncodedSize(), seq.EncodedSize(); got != want {
					t.Fatalf("%s chunk=%d workers=%d: encoded size %d != %d", name, cs, nw, got, want)
				}
				if !bytes.Equal(encodeChunked(t, par), seqBytes) {
					t.Fatalf("%s chunk=%d workers=%d: artifact bytes differ", name, cs, nw)
				}
				if !reflect.DeepEqual(expand(par), seqExp) {
					t.Fatalf("%s chunk=%d workers=%d: expansion differs", name, cs, nw)
				}
				if err := par.VerifyParallel(nw); err != nil {
					t.Fatalf("%s chunk=%d workers=%d: verify: %v", name, cs, nw, err)
				}
			}
		}
	}
}

// TestParallelMatchesRawStream checks the pipeline against the ground
// truth (the raw stream), not just against the reference build.
func TestParallelMatchesRawStream(t *testing.T) {
	events, instrs := eventsFor(t, "compress")
	par := feedParallel(events, instrs, 100, 4)
	if got := expand(par); !reflect.DeepEqual(got, events) {
		t.Fatalf("parallel expansion != raw stream (%d vs %d events)", len(got), len(events))
	}
	if par.Events != uint64(len(events)) {
		t.Fatalf("events %d != %d", par.Events, len(events))
	}
}

// TestParallelCostsMatchSequential: the cost table is built in the Add
// front-end; it must match the reference build's exactly, including
// per-path weights from real numberings.
func TestParallelCostsMatchSequential(t *testing.T) {
	w, err := workloads.ByName("sort")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := wlc.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(prog.Funcs))
	for i, f := range prog.Funcs {
		names[i] = f.Name
	}
	var seqB *refBuilder
	var parB *ParallelChunkedBuilder
	m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) {
		seqB.Add(e)
		parB.Add(e)
	})})
	if err != nil {
		t.Fatal(err)
	}
	seqB = newRefBuilder(names, m.Numberings(), 128)
	parB = NewParallelChunkedBuilder(names, m.Numberings(), 128, ParallelOptions{Workers: 3})
	if _, err := m.Run("main", w.Small); err != nil {
		t.Fatal(err)
	}
	seq := seqB.Finish(m.Stats().Instructions)
	par := parB.Finish(m.Stats().Instructions)
	if !reflect.DeepEqual(par.costs, seq.costs) {
		t.Fatal("cost tables differ")
	}
	if par.DistinctPaths() != seq.DistinctPaths() {
		t.Fatal("distinct path counts differ")
	}
	for e, c := range seq.costs {
		if par.PathCost(e) != c {
			t.Fatalf("PathCost(%v) = %d, want %d", e, par.PathCost(e), c)
		}
	}
	if !reflect.DeepEqual(par.Funcs, seq.Funcs) {
		t.Fatal("func tables differ")
	}
}

func TestParallelEmpty(t *testing.T) {
	for _, nw := range []int{1, 4} {
		b := NewParallelChunkedBuilder(nil, nil, 10, ParallelOptions{Workers: nw})
		c := b.Finish(0)
		if err := c.Verify(); err != nil {
			t.Fatal(err)
		}
		if len(c.Chunks) != 0 || c.Events != 0 {
			t.Fatalf("empty build produced %d chunks, %d events", len(c.Chunks), c.Events)
		}
	}
}

func TestParallelBuilderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero chunk size accepted")
		}
	}()
	NewParallelChunkedBuilder(nil, nil, 0, ParallelOptions{})
}

func TestParallelFinishTwicePanics(t *testing.T) {
	b := NewParallelChunkedBuilder(nil, nil, 10, ParallelOptions{Workers: 1})
	b.Add(trace.MakeEvent(0, 1))
	b.Finish(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Finish accepted")
		}
	}()
	b.Finish(1)
}

func TestVerifyParallelDetectsCorruption(t *testing.T) {
	events, instrs := eventsFor(t, "lexer")
	c := feedParallel(events, instrs, 200, 2)
	if err := c.VerifyParallel(4); err != nil {
		t.Fatal(err)
	}
	// Corrupt the header: every worker count must report the mismatch.
	c.Events++
	for _, nw := range []int{1, 4} {
		if err := c.VerifyParallel(nw); err == nil {
			t.Fatalf("workers=%d: corrupted artifact verified", nw)
		}
	}
}
