package wpp

// Positional queries on the compressed form (engine.Positions) held to
// Walk: on a built WPP, and on every golden artifact both decoded and
// as a lazy view.

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/trace"
)

func queryFixture(t *testing.T) (*engine.Positions, []uint64) {
	t.Helper()
	w, raw := buildWPP(t, loopProgram, 120)
	p, err := engine.NewPositions(w)
	if err != nil {
		t.Fatal(err)
	}
	events := make([]uint64, len(raw))
	for i, e := range raw {
		events[i] = uint64(e)
	}
	return p, events
}

func TestEventAtMatchesWalk(t *testing.T) {
	p, raw := queryFixture(t)
	for i, want := range raw {
		got, err := p.EventAt(uint64(i))
		if err != nil {
			t.Fatalf("EventAt(%d): %v", i, err)
		}
		if got != want {
			t.Fatalf("EventAt(%d) = %v, walk says %v", i, trace.Event(got), trace.Event(want))
		}
	}
}

func TestEventAtOutOfRange(t *testing.T) {
	p, raw := queryFixture(t)
	if _, err := p.EventAt(uint64(len(raw))); err == nil {
		t.Fatal("out-of-range position accepted")
	}
}

func TestSliceMatchesWalk(t *testing.T) {
	p, raw := queryFixture(t)
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 100; trial++ {
		from := rng.Intn(len(raw))
		n := rng.Intn(len(raw) - from + 1)
		got, err := p.Slice(uint64(from), uint64(n), nil)
		if err != nil {
			t.Fatalf("Slice(%d,%d): %v", from, n, err)
		}
		want := raw[from : from+n]
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Slice(%d,%d) mismatch", from, n)
		}
	}
}

func TestSliceFullTrace(t *testing.T) {
	p, raw := queryFixture(t)
	got, err := p.Slice(0, p.Len(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, raw) {
		t.Fatal("full-trace slice mismatch")
	}
}

func TestSliceBounds(t *testing.T) {
	p, _ := queryFixture(t)
	if _, err := p.Slice(p.Len(), 1, nil); err == nil {
		t.Fatal("out-of-range slice accepted")
	}
	if _, err := p.Slice(0, p.Len()+1, nil); err == nil {
		t.Fatal("oversized slice accepted")
	}
	got, err := p.Slice(5, 0, nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty slice: %v %v", got, err)
	}
}

func TestSliceAppendsToBuffer(t *testing.T) {
	p, raw := queryFixture(t)
	buf := []uint64{uint64(trace.MakeEvent(0, 0))}
	got, err := p.Slice(1, 3, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || !reflect.DeepEqual(got[1:], raw[1:4]) {
		t.Fatal("Slice did not append")
	}
}

// TestPositionsGoldenProperty checks EventAt and Slice against Walk on
// every golden file, decoded and as a view of the same bytes: the
// first, middle and last positions, seeded random positions and ranges,
// empty ranges, and both out-of-range errors. On the view, a query
// after the index is built materializes at most one chunk per chunk it
// touches.
func TestPositionsGoldenProperty(t *testing.T) {
	names := make([]string, 0, 40)
	corpus := goldenArtifacts(t)
	for name := range corpus {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		data := corpus[name]
		decoded, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var walked []uint64
		decoded.Walk(func(e trace.Event) bool { walked = append(walked, uint64(e)); return true })
		met := NewViewMetrics(obsv.NewRegistry())
		view, err := NewView(data, &ViewOptions{Metrics: met})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, src := range []struct {
			kind string
			src  engine.Source
		}{{"decoded", decoded}, {"view", view}} {
			p, err := engine.NewPositions(src.src)
			if err != nil {
				t.Fatalf("%s %s: %v", name, src.kind, err)
			}
			checkPositions(t, name+" "+src.kind, p, walked)
		}
		// Forward point queries load each chunk at most once more.
		p, _ := engine.NewPositions(view)
		before := met.ChunksMaterialized.Value()
		for c, step := uint64(0), max(1, p.Len()/7); c < p.Len(); c += step {
			if _, err := p.EventAt(c); err != nil {
				t.Fatal(err)
			}
		}
		if got := met.ChunksMaterialized.Value() - before; got > uint64(view.NumChunks()) {
			t.Errorf("%s: forward queries materialized %d chunks of %d", name, got, view.NumChunks())
		}
		if _, err := p.EventAt(p.Len() / 2); err != nil {
			t.Fatal(err)
		}
		before = met.ChunksMaterialized.Value()
		if _, err := p.EventAt(0); err != nil {
			t.Fatal(err)
		}
		if got := met.ChunksMaterialized.Value() - before; got > 1 {
			t.Errorf("%s: one EventAt materialized %d chunks", name, got)
		}
	}
}

// checkPositions holds p to walked, the trace Walk yields.
func checkPositions(t *testing.T, what string, p *engine.Positions, walked []uint64) {
	t.Helper()
	n := uint64(len(walked))
	if p.Len() != n {
		t.Fatalf("%s: Len %d, walk yields %d events", what, p.Len(), n)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	points := []uint64{0, n / 2, n - 1}
	for i := 0; i < 20; i++ {
		points = append(points, uint64(rng.Int63n(int64(n))))
	}
	for _, i := range points {
		got, err := p.EventAt(i)
		if err != nil || got != walked[i] {
			t.Fatalf("%s: EventAt(%d) = %v, %v; walk says %v", what, i, trace.Event(got), err, trace.Event(walked[i]))
		}
	}
	ranges := [][2]uint64{{0, n}, {0, 1}, {n - 1, 1}, {n / 2, n - n/2}, {0, 0}, {n, 0}, {n / 2, 0}}
	for i := 0; i < 20; i++ {
		from := uint64(rng.Int63n(int64(n)))
		ranges = append(ranges, [2]uint64{from, uint64(rng.Int63n(int64(min(n-from, 5000)) + 1))})
	}
	for _, r := range ranges {
		got, err := p.Slice(r[0], r[1], nil)
		if err != nil {
			t.Fatalf("%s: Slice(%d,%d): %v", what, r[0], r[1], err)
		}
		if want := walked[r[0] : r[0]+r[1]]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: Slice(%d,%d) differs from the walk", what, r[0], r[1])
		}
	}
	if _, err := p.EventAt(n); err == nil {
		t.Fatalf("%s: EventAt(%d) past the end accepted", what, n)
	}
	if _, err := p.Slice(n, 1, nil); err == nil {
		t.Fatalf("%s: Slice past the end accepted", what)
	}
	if _, err := p.Slice(1, math.MaxUint64, nil); err == nil {
		t.Fatalf("%s: overflowing Slice accepted", what)
	}
}

// TestViewPositionsFromHeader: a view's positional index comes from its
// header, so building it materializes no chunk, on every golden file;
// and a chunk that expands to another length than the header states
// fails the query that loads it with a *ViewError, never a wrong answer.
func TestViewPositionsFromHeader(t *testing.T) {
	for name, data := range goldenArtifacts(t) {
		met := NewViewMetrics(obsv.NewRegistry())
		view, err := NewView(data, &ViewOptions{Metrics: met})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := engine.NewPositions(view)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := met.ChunksMaterialized.Value(); got != 0 {
			t.Errorf("%s: NewPositions materialized %d chunks", name, got)
		}
		if p.Len() != view.NumEvents() {
			t.Errorf("%s: Len %d, header says %d events", name, p.Len(), view.NumEvents())
		}
	}

	// Chunks of 100, 100 and 41 events under a header whose chunk size
	// is 101: its lengths, 101, 101 and 39, still sum to the event count.
	c, events := buildChunked(t, loopProgram, 100, 120)
	if len(c.Chunks) != 3 || len(events) != 241 {
		t.Fatalf("fixture has %d chunks and %d events, want 3 and 241", len(c.Chunks), len(events))
	}
	c.ChunkSize = 101
	view, err := NewView(encodeChunked(t, c), nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.NewPositions(view)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.EventAt(0)
	var ve *ViewError
	if !errors.As(err, &ve) || ve.Chunk != 0 {
		t.Fatalf("EventAt(0) on a chunk shorter than its header states: %v, want a *ViewError for chunk 0", err)
	}
	q, err := engine.NewPositions(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.FirstDiff(q, p); !errors.As(err, &ve) {
		t.Fatalf("FirstDiff against that view: %v, want a *ViewError", err)
	}
}
