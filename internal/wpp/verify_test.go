package wpp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sequitur"
	"repro/internal/trace"
)

// buildVerifyWPP compresses a synthetic event stream with the monolithic
// builder.
func buildVerifyWPP(events []trace.Event) *WPP {
	b := NewMonoBuilder([]string{"f0", "f1"}, nil)
	for _, e := range events {
		b.Add(e)
	}
	return b.Finish(uint64(len(events)))
}

func synthEvents(n int) []trace.Event {
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.MakeEvent(uint32(i%2), uint64(i%7))
	}
	return events
}

func TestVerifyArtifactMonolithic(t *testing.T) {
	w := buildVerifyWPP(synthEvents(500))
	rep, err := w.VerifyArtifact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "monolithic" || rep.Events != 500 || rep.Chunks != 1 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.DistinctEvents != w.DistinctPaths() {
		t.Fatalf("distinct events %d, want %d", rep.DistinctEvents, w.DistinctPaths())
	}
	// Built with nil numberings: no path counts, nothing bounded.
	if rep.UnknownFuncs != 2 || rep.BoundedEvents != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if !strings.Contains(rep.String(), "monolithic artifact verified") {
		t.Fatalf("report string: %s", rep.String())
	}
}

func TestVerifyArtifactChecksPathBounds(t *testing.T) {
	w := buildVerifyWPP(synthEvents(100))
	// Path IDs run 0..6; a recorded bound of 7 is satisfied.
	w.Funcs[0].NumPaths = 7
	w.Funcs[1].NumPaths = 7
	rep, err := w.VerifyArtifact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.BoundedEvents != rep.DistinctEvents || rep.UnknownFuncs != 0 {
		t.Fatalf("report: %+v", rep)
	}
	// A tighter bound must be rejected.
	w.Funcs[1].NumPaths = 5
	if _, err := w.VerifyArtifact(); err == nil || !strings.Contains(err.Error(), "outside [0,5)") {
		t.Fatalf("path-ID bound violation not caught: %v", err)
	}
}

func TestVerifyArtifactRejectsUtilityViolation(t *testing.T) {
	w := buildVerifyWPP([]trace.Event{1, 2})
	// Hand-build a grammar expanding to the same 2 events but with a rule
	// used only once.
	w.Grammar = &sequitur.Snapshot{Rules: [][]sequitur.Sym{
		{{Rule: 1}},
		{{Rule: -1, Value: 1}, {Rule: -1, Value: 2}},
	}}
	if _, err := w.VerifyArtifact(); err == nil || !strings.Contains(err.Error(), "rule utility") {
		t.Fatalf("utility violation not caught: %v", err)
	}
}

func TestVerifyArtifactRejectsUnreachableRule(t *testing.T) {
	w := buildVerifyWPP([]trace.Event{1, 2})
	w.Grammar = &sequitur.Snapshot{Rules: [][]sequitur.Sym{
		{{Rule: -1, Value: 1}, {Rule: -1, Value: 2}},
		{{Rule: -1, Value: 3}, {Rule: -1, Value: 4}},
	}}
	if _, err := w.VerifyArtifact(); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("unreachable rule not caught: %v", err)
	}
}

func TestVerifyArtifactRejectsDigramBlowup(t *testing.T) {
	// The digram (1,2) occurs 8 times in a 16-event start rule: far past
	// the seam slack of 2 + 16/50.
	var rhs []sequitur.Sym
	var events []trace.Event
	for i := 0; i < 8; i++ {
		rhs = append(rhs, sequitur.Sym{Rule: -1, Value: 1}, sequitur.Sym{Rule: -1, Value: 2})
		events = append(events, 1, 2)
	}
	w := buildVerifyWPP(events)
	w.Grammar = &sequitur.Snapshot{Rules: [][]sequitur.Sym{rhs}}
	if _, err := w.VerifyArtifact(); err == nil || !strings.Contains(err.Error(), "duplicate digrams") {
		t.Fatalf("digram blowup not caught: %v", err)
	}
}

func TestVerifyArtifactRejectsForeignCostEntry(t *testing.T) {
	w := buildVerifyWPP(synthEvents(50))
	w.costs[trace.MakeEvent(1, 999)] = 1 // never appears in the trace
	if _, err := w.VerifyArtifact(); err == nil || !strings.Contains(err.Error(), "cost table") {
		t.Fatalf("stray cost entry not caught: %v", err)
	}
}

func TestVerifyArtifactChunked(t *testing.T) {
	b := newRefBuilder([]string{"f0", "f1"}, nil, 64)
	events := synthEvents(500)
	for _, e := range events {
		b.Add(e)
	}
	c := b.Finish(500)
	rep, err := c.VerifyArtifact()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "chunked" || rep.Chunks != len(c.Chunks) || rep.Events != 500 {
		t.Fatalf("report: %+v", rep)
	}

	// Tampering with the declared geometry must be caught.
	c.ChunkSize = 100
	if _, err := c.VerifyArtifact(); err == nil || !strings.Contains(err.Error(), "chunk size") {
		t.Fatalf("chunk geometry violation not caught: %v", err)
	}
}

func TestVerifyArtifactEmpty(t *testing.T) {
	w := buildVerifyWPP(nil)
	if _, err := w.VerifyArtifact(); err != nil {
		t.Fatalf("empty monolithic artifact: %v", err)
	}
	cb := newRefBuilder(nil, nil, 8)
	if _, err := cb.Finish(0).VerifyArtifact(); err != nil {
		t.Fatalf("empty chunked artifact: %v", err)
	}
}

// TestVerifyRejectsUnknownFunction: an event naming a function beyond
// the function table fails Verify on both containers, eagerly and
// through a view.
func TestVerifyRejectsUnknownFunction(t *testing.T) {
	events := []trace.Event{trace.MakeEvent(0, 1), trace.MakeEvent(1, 2), trace.MakeEvent(0, 1)}
	b := NewParallelChunkedBuilder([]string{"f0"}, nil, 2, ParallelOptions{Workers: 1})
	m := NewMonoBuilder([]string{"f0"}, nil)
	for _, e := range events {
		b.Add(e)
		m.Add(e)
	}
	for _, a := range []Artifact{b.Finish(3), m.Finish(3)} {
		if err := a.Verify(); err == nil || !strings.Contains(err.Error(), "unknown function") {
			t.Errorf("%T.Verify = %v, want an unknown-function error", a, err)
		}
		var buf bytes.Buffer
		if _, err := a.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		v, err := NewView(buf.Bytes(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			if err := v.Verify(workers); err == nil || !strings.Contains(err.Error(), "unknown function") {
				t.Errorf("%s view Verify(%d) = %v, want an unknown-function error", v.Format(), workers, err)
			}
		}
	}
}
