package wpp

// Builder-level batch differential: feeding a stream through AddBatch
// (in arbitrary splits) must produce an artifact byte-identical to
// feeding it through Add one event at a time, for every construction
// strategy and worker count, in both encodings. This pins the batched
// path — chunk-boundary splitting and batch-width independence of the
// SEQUITUR engine — to the per-event feed end to end.

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// feedEach drives the stream one event at a time.
func feedEach(b Builder, events []trace.Event) {
	for _, e := range events {
		b.Add(e)
	}
}

// feedBatches drives the stream in random slices (including some empty
// ones, which must be no-ops).
func feedBatches(b Builder, events []trace.Event, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for lo := 0; lo < len(events); {
		if rng.Intn(10) == 0 {
			b.AddBatch(nil)
		}
		hi := min(lo+1+rng.Intn(200), len(events))
		b.AddBatch(events[lo:hi])
		lo = hi
	}
}

func encodeArtifact(t *testing.T, a Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// setVersion flips the encoding version on either concrete artifact.
func setVersion(a Artifact, v uint8) {
	switch t := a.(type) {
	case *WPP:
		t.Version = v
	case *ChunkedWPP:
		t.Version = v
	}
}

// TestAddBatchMatchesAddArtifacts is the sealed-artifact byte-equality
// matrix: {mono, chunked x workers 1/2/4} x {stream shapes} x {v1, v2}.
func TestAddBatchMatchesAddArtifacts(t *testing.T) {
	strategies := []struct {
		name string
		opts BuildOptions
	}{
		{"mono", BuildOptions{}},
		{"chunked-w1", BuildOptions{ChunkSize: 64, Workers: 1}},
		{"chunked-w2", BuildOptions{ChunkSize: 64, Workers: 2}},
		{"chunked-w4", BuildOptions{ChunkSize: 64, Workers: 4}},
	}
	for name, events := range testStreams() {
		for _, st := range strategies {
			t.Run(name+"/"+st.name, func(t *testing.T) {
				names := funcNames(events)
				ref := New(names, nil, st.opts)
				feedEach(ref, events)
				want := ref.Finish(uint64(len(events)))

				got := New(names, nil, st.opts)
				feedBatches(got, events, 99)
				if got.Events() != uint64(len(events)) {
					t.Fatalf("batched builder counted %d events, want %d", got.Events(), len(events))
				}
				a := got.Finish(uint64(len(events)))
				if _, err := a.VerifyArtifact(1); err != nil {
					t.Fatalf("batched artifact fails deep verification: %v", err)
				}
				for _, v := range []uint8{FormatV1, FormatV2} {
					setVersion(want, v)
					setVersion(a, v)
					wb := encodeArtifact(t, want)
					gb := encodeArtifact(t, a)
					if !bytes.Equal(wb, gb) {
						t.Fatalf("v%d artifacts diverge: per-event %d bytes, batched %d bytes", v, len(wb), len(gb))
					}
				}
			})
		}
	}
}

// TestAddBatchMixedWithAdd interleaves the two ingestion surfaces on
// one builder against the pure per-event reference.
func TestAddBatchMixedWithAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	events := make([]trace.Event, 4000)
	for i := range events {
		events[i] = trace.MakeEvent(uint32(rng.Intn(2)), uint64(rng.Intn(9)))
	}
	for _, opts := range []BuildOptions{{}, {ChunkSize: 128, Workers: 2}} {
		ref := New(funcNames(events), nil, opts)
		feedEach(ref, events)
		want := encodeArtifact(t, ref.Finish(7777))

		mixed := New(funcNames(events), nil, opts)
		for lo := 0; lo < len(events); {
			if rng.Intn(2) == 0 {
				mixed.Add(events[lo])
				lo++
				continue
			}
			hi := min(lo+1+rng.Intn(300), len(events))
			mixed.AddBatch(events[lo:hi])
			lo = hi
		}
		got := encodeArtifact(t, mixed.Finish(7777))
		if !bytes.Equal(want, got) {
			t.Fatalf("mixed Add/AddBatch artifact diverges (chunk=%d)", opts.ChunkSize)
		}
	}
}

// TestBufferIsBatchSink: the in-memory Buffer implements the batch
// surface and AddBatch appends equivalently to repeated Add.
func TestBufferIsBatchSink(t *testing.T) {
	var b trace.Buffer
	var s trace.BatchSink = &b
	s.Add(trace.MakeEvent(1, 2))
	s.AddBatch([]trace.Event{trace.MakeEvent(3, 4), trace.MakeEvent(5, 6)})
	want := []trace.Event{trace.MakeEvent(1, 2), trace.MakeEvent(3, 4), trace.MakeEvent(5, 6)}
	if len(b.Events) != len(want) {
		t.Fatalf("buffer holds %d events, want %d", len(b.Events), len(want))
	}
	for i := range want {
		if b.Events[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, b.Events[i], want[i])
		}
	}
}
