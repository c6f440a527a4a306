package wpp

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/wlc"
)

const loopProgram = `
func weigh(x) {
    if x % 4 == 0 { return x / 2; }
    return 3 * x + 1;
}
func main(n) {
    var acc = 0;
    var i = 0;
    while i < n {
        acc = acc + weigh(i);
        if acc > 1000000 { acc = acc % 97; }
        i = i + 1;
    }
    return acc;
}`

// buildWPP runs src under path tracing and returns the WPP plus the raw
// event stream for cross-checking.
func buildWPP(t *testing.T, src string, args ...int64) (*WPP, []trace.Event) {
	t.Helper()
	p, err := wlc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var raw []trace.Event
	var b Builder
	m, err := interp.New(p, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) {
		raw = append(raw, e)
		b.Add(e)
	})})
	if err != nil {
		t.Fatal(err)
	}
	names := p.FuncNames()
	b = New(names, m.Numberings(), BuildOptions{})
	if _, err := m.Run("main", args...); err != nil {
		t.Fatal(err)
	}
	return b.Finish(m.Stats().Instructions).(*WPP), raw
}

func TestBuildAndWalk(t *testing.T) {
	w, raw := buildWPP(t, loopProgram, 200)
	if w.Events != uint64(len(raw)) {
		t.Fatalf("Events = %d, raw stream has %d", w.Events, len(raw))
	}
	var walked []trace.Event
	w.Walk(func(e trace.Event) bool {
		walked = append(walked, e)
		return true
	})
	if !reflect.DeepEqual(walked, raw) {
		t.Fatal("Walk does not reproduce the raw event stream")
	}
	if err := w.Verify(1); err != nil {
		t.Fatal(err)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	w, _ := buildWPP(t, loopProgram, 50)
	count := 0
	w.Walk(func(trace.Event) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop yielded %d events", count)
	}
}

func TestPathCosts(t *testing.T) {
	w, raw := buildWPP(t, loopProgram, 100)
	if w.DistinctPaths() == 0 {
		t.Fatal("no distinct paths recorded")
	}
	var total uint64
	for _, e := range raw {
		c := w.PathCost(e)
		if c == 0 {
			t.Fatalf("event %v has no cost", e)
		}
		total += c
	}
	// Total path cost must equal total executed instructions: every
	// instruction is attributed to exactly one acyclic path.
	if total != w.Instructions {
		t.Fatalf("sum of path costs %d != executed instructions %d", total, w.Instructions)
	}
}

func TestStatsConsistency(t *testing.T) {
	w, raw := buildWPP(t, loopProgram, 300)
	st := w.Stats()
	if st.Events != uint64(len(raw)) {
		t.Fatalf("stats events %d, want %d", st.Events, len(raw))
	}
	if st.RawTraceBytes != trace.EncodedSize(raw) {
		t.Fatalf("RawTraceBytes = %d, direct encoding = %d", st.RawTraceBytes, trace.EncodedSize(raw))
	}
	if st.GrammarBytes <= 0 || st.EncodedBytes < st.GrammarBytes {
		t.Fatalf("suspicious sizes %+v", st)
	}
	if st.RHSSymbols >= len(raw) {
		t.Fatalf("grammar (%d symbols) did not compress %d events", st.RHSSymbols, len(raw))
	}
}

func TestCompressionOnLoopyTrace(t *testing.T) {
	w, raw := buildWPP(t, loopProgram, 2000)
	st := w.Stats()
	ratio := float64(st.RawTraceBytes) / float64(st.GrammarBytes)
	if ratio < 10 {
		t.Fatalf("WPP compression ratio %.1f too low (raw=%d grammar=%d events=%d)",
			ratio, st.RawTraceBytes, st.GrammarBytes, len(raw))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	w, raw := buildWPP(t, loopProgram, 150)
	var buf bytes.Buffer
	written, err := w.Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if written != int64(buf.Len()) {
		t.Fatalf("Encode reported %d bytes, wrote %d", written, buf.Len())
	}
	back := decodeWPP(t, buf.Bytes())
	if err := back.Verify(1); err != nil {
		t.Fatal(err)
	}
	if back.Events != w.Events || back.Instructions != w.Instructions {
		t.Fatal("header fields lost in round trip")
	}
	if !reflect.DeepEqual(back.Funcs, w.Funcs) {
		t.Fatal("function table lost in round trip")
	}
	var walked []trace.Event
	back.Walk(func(e trace.Event) bool { walked = append(walked, e); return true })
	if !reflect.DeepEqual(walked, raw) {
		t.Fatal("decoded WPP expands differently")
	}
	for _, e := range raw {
		if back.PathCost(e) != w.PathCost(e) {
			t.Fatalf("cost of %v lost in round trip", e)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("XYZ"), []byte("WPP1"), []byte("WPP1\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")} {
		if _, err := Decode(data); err == nil {
			t.Fatalf("Decode(%q) succeeded", data)
		}
	}
}

func TestVerifyCatchesTruncatedEvents(t *testing.T) {
	w, _ := buildWPP(t, loopProgram, 50)
	w.Events++ // corrupt the header
	if err := w.Verify(1); err == nil {
		t.Fatal("corrupted event count not detected")
	}
}

func TestBuilderWithoutNumberings(t *testing.T) {
	b := New([]string{"f"}, nil, BuildOptions{})
	for i := 0; i < 10; i++ {
		b.Add(trace.MakeEvent(0, uint64(i%3)))
	}
	w := b.Finish(123).(*WPP)
	if w.PathCost(trace.MakeEvent(0, 1)) != 1 {
		t.Fatal("default path cost should be 1")
	}
	if w.Events != 10 || w.Instructions != 123 {
		t.Fatalf("header fields wrong: %+v", w)
	}
}

func TestGrowthSampling(t *testing.T) {
	b := New([]string{"f"}, nil, BuildOptions{}).(*builder)
	var prevRules int
	for i := 0; i < 5000; i++ {
		b.Add(trace.MakeEvent(0, uint64(i%7)))
		if i == 100 {
			prevRules = b.GrammarStats().Rules
		}
	}
	st := b.GrammarStats()
	if st.Terminals != 5000 {
		t.Fatalf("terminals = %d", st.Terminals)
	}
	if prevRules == 0 || st.Rules < prevRules {
		t.Fatalf("rules shrank from %d to %d on periodic input", prevRules, st.Rules)
	}
	// Periodic input: grammar must stay tiny relative to the stream.
	if st.RHSSymbols > 200 {
		t.Fatalf("grammar blew up: %+v", st)
	}
}

func TestEmptyWPP(t *testing.T) {
	b := New(nil, nil, BuildOptions{})
	w := b.Finish(0)
	if err := w.Verify(1); err != nil {
		t.Fatal(err)
	}
	count := 0
	w.Walk(func(trace.Event) bool { count++; return true })
	if count != 0 {
		t.Fatalf("empty WPP walked %d events", count)
	}
	var buf bytes.Buffer
	if _, err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if back := decodeWPP(t, buf.Bytes()); back.Events != 0 {
		t.Fatal("empty round trip failed")
	}
}

// TestAnonymousBuildNamesFunctions: a build given no names calls the
// functions it saw f0..f<max ID>, mono and chunked alike, sealed or
// snapshotted; an empty trace gets [f0]. Named builds keep their names.
func TestAnonymousBuildNamesFunctions(t *testing.T) {
	events := []trace.Event{trace.MakeEvent(3, 1), trace.MakeEvent(0, 0), trace.MakeEvent(3, 1), trace.MakeEvent(1, 2)}
	want := []FuncInfo{{Name: "f0"}, {Name: "f1"}, {Name: "f2"}, {Name: "f3"}}
	for _, opts := range []BuildOptions{{}, {ChunkSize: 2, Workers: 2}} {
		b := New(nil, nil, opts)
		b.AddBatch(events[:2])
		// Only a monolithic build has one grammar to snapshot.
		if snap := b.(LiveSnapshotter).SnapshotWPP(); (snap != nil) != (opts.ChunkSize == 0) {
			t.Fatalf("%+v: snapshot %v", opts, snap)
		} else if snap != nil && !reflect.DeepEqual(snap.Funcs, want) {
			t.Fatalf("%+v: snapshot names %v, want %v", opts, snap.Funcs, want)
		}
		b.AddBatch(events[2:])
		a := b.Finish(uint64(len(events)))
		if got := a.FuncTable(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: sealed names %v, want %v", opts, got, want)
		}
		if err := a.Verify(1); err != nil {
			t.Fatal(err)
		}
		if got := New(nil, nil, opts).Finish(0).FuncTable(); !reflect.DeepEqual(got, want[:1]) {
			t.Fatalf("%+v: empty trace names %v, want [f0]", opts, got)
		}
		named := New([]string{"main"}, nil, opts)
		named.Add(trace.MakeEvent(0, 0))
		if got := named.Finish(1).FuncTable(); !reflect.DeepEqual(got, []FuncInfo{{Name: "main"}}) {
			t.Fatalf("%+v: named build names %v", opts, got)
		}
	}
}

// TestReportNilBeforeFinish: both strategies report nothing until they
// are sealed, then a summary of the build.
func TestReportNilBeforeFinish(t *testing.T) {
	for _, opts := range []BuildOptions{{}, {ChunkSize: 2, Workers: 1}} {
		b := New([]string{"f"}, nil, opts)
		b.AddBatch([]trace.Event{0, 0, 0})
		if r := b.Report(); r != nil {
			t.Fatalf("%+v: report %+v before Finish", opts, r)
		}
		b.Finish(3)
		if r := b.Report(); r == nil || r.Events != 3 {
			t.Fatalf("%+v: report %+v after Finish", opts, r)
		}
	}
}

// GrammarStats measures a monolithic build's live grammar on a snapshot,
// for tests that sample the builder mid-stream.
func (b *builder) GrammarStats() sequitur.Stats {
	w := b.SnapshotWPP()
	st := sequitur.Stats{Terminals: w.Events, Rules: len(w.Grammar.Rules)}
	for _, rhs := range w.Grammar.Rules {
		st.RHSSymbols += len(rhs)
	}
	return st
}
