package wpp

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/sequitur"
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
	b := New(funcNames(events), nil, BuildOptions{ChunkSize: chunkSize, Workers: workers})
	for _, e := range events {
		b.Add(e)
	}
	return b.Finish(instrs).(*ChunkedWPP)
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
				if err := par.Verify(nw); err != nil {
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
	names := prog.FuncNames()
	var seqB *refBuilder
	var parB Builder
	m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) {
		seqB.Add(e)
		parB.Add(e)
	})})
	if err != nil {
		t.Fatal(err)
	}
	seqB = newRefBuilder(names, m.Numberings(), 128)
	parB = New(names, m.Numberings(), BuildOptions{ChunkSize: 128, Workers: 3})
	if _, err := m.Run("main", w.Small); err != nil {
		t.Fatal(err)
	}
	seq := seqB.Finish(m.Stats().Instructions)
	par := parB.Finish(m.Stats().Instructions).(*ChunkedWPP)
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
		b := New(nil, nil, BuildOptions{ChunkSize: 10, Workers: nw})
		c := b.Finish(0).(*ChunkedWPP)
		if err := c.Verify(1); err != nil {
			t.Fatal(err)
		}
		if len(c.Chunks) != 0 || c.Events != 0 {
			t.Fatalf("empty build produced %d chunks, %d events", len(c.Chunks), c.Events)
		}
	}
}

func TestParallelFinishTwicePanics(t *testing.T) {
	b := New(nil, nil, BuildOptions{ChunkSize: 10, Workers: 1})
	b.Add(trace.MakeEvent(0, 1))
	b.Finish(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Finish accepted")
		}
	}()
	b.Finish(1)
}

// TestOutOfRangeEventPanicsOnCaller feeds an event SEQUITUR cannot
// take, through Add and inside an AddBatch slice, to a monolithic and a
// chunked build. Each call must panic on the caller's goroutine before
// it takes any event, so the caller recovers, Finish seals the events
// fed before, and the builder's goroutines drain.
func TestOutOfRangeEventPanicsOnCaller(t *testing.T) {
	bad := trace.Event(sequitur.MaxTerminal)
	good := []trace.Event{trace.MakeEvent(0, 1), trace.MakeEvent(0, 2), trace.MakeEvent(0, 1), trace.MakeEvent(0, 2)}
	for _, opts := range []BuildOptions{{}, {ChunkSize: 3, Workers: 4}} {
		base := runtime.NumGoroutine()
		b := New(nil, nil, opts)
		b.AddBatch(good)
		for name, feed := range map[string]func(){
			"Add":      func() { b.Add(bad) },
			"AddBatch": func() { b.AddBatch(append(slices.Clone(good), bad)) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%+v: %s took out-of-range event %#x", opts, name, uint64(bad))
					}
				}()
				feed()
			}()
			if b.Events() != uint64(len(good)) {
				t.Fatalf("%+v: %s changed the event count to %d before panicking", opts, name, b.Events())
			}
		}
		a := b.Finish(0)
		if a.NumEvents() != uint64(len(good)) {
			t.Fatalf("%+v: artifact has %d events, want %d", opts, a.NumEvents(), len(good))
		}
		if err := a.Verify(1); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%+v: %d goroutines after Finish, %d before", opts, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestVerifyParallelDetectsCorruption(t *testing.T) {
	events, instrs := eventsFor(t, "lexer")
	c := feedParallel(events, instrs, 200, 2)
	if err := c.Verify(4); err != nil {
		t.Fatal(err)
	}
	// Corrupt the header: every worker count must report the mismatch.
	c.Events++
	for _, nw := range []int{1, 4} {
		if err := c.Verify(nw); err == nil {
			t.Fatalf("workers=%d: corrupted artifact verified", nw)
		}
	}
}
