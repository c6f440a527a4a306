package wpp

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/trace"
)

// liveEvents builds a small synthetic stream with enough repetition for
// SEQUITUR to form rules.
func liveEvents(n int) []trace.Event {
	es := make([]trace.Event, 0, n)
	for i := 0; i < n; i++ {
		es = append(es, trace.MakeEvent(uint32(i%5), uint64(i%3)))
		if i%4 == 0 {
			es = append(es, trace.MakeEvent(1, 2), trace.MakeEvent(1, 2))
		}
	}
	return es[:n]
}

// liveNames covers every function ID liveEvents (and the tests) can emit.
func liveNames() []string { return make([]string, 128) }

// TestSnapshotWPPMatchesPrefixBuild pins the live-query contract: a
// snapshot taken after k events is indistinguishable from sealing a fresh
// builder fed exactly those k events, and taking it does not perturb the
// ongoing build.
func TestSnapshotWPPMatchesPrefixBuild(t *testing.T) {
	events := liveEvents(800)
	for _, cut := range []int{0, 1, 137, 400, 800} {
		live := New(liveNames(), nil, BuildOptions{}).(*builder)
		for _, e := range events[:cut] {
			live.Add(e)
		}
		snap := live.SnapshotWPP()

		ref := New(liveNames(), nil, BuildOptions{})
		for _, e := range events[:cut] {
			ref.Add(e)
		}
		want := ref.Finish(0).(*WPP)

		if snap.Events != want.Events {
			t.Fatalf("cut %d: snapshot has %d events, want %d", cut, snap.Events, want.Events)
		}
		if len(snap.Grammar.Rules) != len(want.Grammar.Rules) {
			t.Fatalf("cut %d: snapshot grammar has %d rules, want %d", cut, len(snap.Grammar.Rules), len(want.Grammar.Rules))
		}
		var a, b []trace.Event
		snap.Walk(func(e trace.Event) bool { a = append(a, e); return true })
		want.Walk(func(e trace.Event) bool { b = append(b, e); return true })
		if len(a) != len(b) {
			t.Fatalf("cut %d: walks differ in length: %d vs %d", cut, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("cut %d: walk diverges at %d: %v vs %v", cut, i, a[i], b[i])
			}
		}
		if snap.DistinctPaths() != want.DistinctPaths() {
			t.Fatalf("cut %d: distinct paths %d, want %d", cut, snap.DistinctPaths(), want.DistinctPaths())
		}
		// With nil numberings every path costs 1, so the live denominator
		// must equal the event count.
		if snap.TotalPathCost() != uint64(cut) {
			t.Fatalf("cut %d: TotalPathCost %d, want %d", cut, snap.TotalPathCost(), cut)
		}

		// The live builder keeps going and still seals correctly.
		for _, e := range events[cut:] {
			live.Add(e)
		}
		full := live.Finish(0).(*WPP)
		if full.Events != uint64(len(events)) {
			t.Fatalf("cut %d: continued build has %d events, want %d", cut, full.Events, len(events))
		}
		if err := full.Verify(1); err != nil {
			t.Fatalf("cut %d: continued build fails verify: %v", cut, err)
		}
	}
}

// TestSnapshotWPPAfterBatchedIngest pins that a snapshot taken after
// AddBatch (lazy cost) ingestion derives the same cost table Finish
// would, and that mutating the continued build does not leak into the
// snapshot's copied costs.
func TestSnapshotWPPAfterBatchedIngest(t *testing.T) {
	events := liveEvents(600)
	live := New(liveNames(), nil, BuildOptions{}).(*builder)
	live.AddBatch(events[:300])
	snap := live.SnapshotWPP()
	if got := snap.DistinctPaths(); got == 0 {
		t.Fatal("snapshot after AddBatch has empty cost table")
	}
	if err := snap.Verify(1); err != nil {
		t.Fatalf("snapshot fails verify: %v", err)
	}
	before := snap.DistinctPaths()
	// Feed events with a function ID the snapshot has not seen.
	live.AddBatch([]trace.Event{trace.MakeEvent(77, 1), trace.MakeEvent(77, 1)})
	if snap.DistinctPaths() != before {
		t.Fatal("continued ingestion mutated the snapshot's cost table")
	}
	full := live.Finish(42).(*WPP)
	if full.Instructions != 42 {
		t.Fatalf("Finish instructions = %d, want 42", full.Instructions)
	}
}

// TestSnapshotWPPInstructionsIsTotalPathCost pins the documented live
// denominator.
func TestSnapshotWPPInstructionsIsTotalPathCost(t *testing.T) {
	live := New(liveNames(), nil, BuildOptions{}).(*builder)
	live.AddBatch(liveEvents(256))
	snap := live.SnapshotWPP()
	if snap.Instructions != snap.TotalPathCost() {
		t.Fatalf("snapshot Instructions %d != TotalPathCost %d", snap.Instructions, snap.TotalPathCost())
	}
	if snap.Instructions != 256 {
		t.Fatalf("cost-1 TotalPathCost = %d, want 256", snap.Instructions)
	}
}

// TestTotalPathCostWeighted checks the weighted sum against a direct walk.
func TestTotalPathCostWeighted(t *testing.T) {
	b := New(liveNames(), nil, BuildOptions{})
	events := liveEvents(512)
	for _, e := range events {
		b.Add(e)
	}
	w := b.Finish(0).(*WPP)
	// Direct walk with the artifact's own cost table.
	var want uint64
	w.Walk(func(e trace.Event) bool { want += w.PathCost(e); return true })
	if got := w.TotalPathCost(); got != want {
		t.Fatalf("TotalPathCost = %d, walked sum = %d", got, want)
	}
}

// TestSnapshotWPPAcrossBatches: snapshots taken after whole batches and
// inside a partly filled one each cover exactly the events added so
// far, and the build seals byte-identical to one never snapshotted.
func TestSnapshotWPPAcrossBatches(t *testing.T) {
	events := liveEvents(3*batchEvents + 100)
	live := New(liveNames(), nil, BuildOptions{}).(*builder)
	ref := New(liveNames(), nil, BuildOptions{})
	cuts := map[int]bool{batchEvents: true, batchEvents + 1: true, 2*batchEvents + 77: true, len(events): true}
	for i, e := range events {
		live.Add(e)
		ref.Add(e)
		if !cuts[i+1] {
			continue
		}
		snap := live.SnapshotWPP()
		var walked []trace.Event
		snap.Walk(func(e trace.Event) bool { walked = append(walked, e); return true })
		if snap.Events != uint64(i+1) || !reflect.DeepEqual(walked, events[:i+1]) {
			t.Fatalf("snapshot after %d events covers %d (walks %d)", i+1, snap.Events, len(walked))
		}
	}
	var got, want bytes.Buffer
	if _, err := live.Finish(9).Encode(&got); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Finish(9).Encode(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("snapshotted build seals differently from an unsnapshotted one")
	}
}
