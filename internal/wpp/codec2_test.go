package wpp

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sequitur"
	"repro/internal/trace"
)

// testStreams is a spread of event streams exercising the shapes that
// matter to the v2 packing: empty, single event, high repetition (deep
// rules, tiny dictionary), near-random (shallow rules, wide dictionary),
// and multi-function events (large terminal values, where rank packing
// pays).
func testStreams() map[string][]trace.Event {
	streams := map[string][]trace.Event{
		"empty":  {},
		"single": {trace.MakeEvent(0, 7)},
	}
	rep := make([]trace.Event, 0, 600)
	for i := 0; i < 150; i++ {
		for _, p := range []uint64{0, 1, 2, 1} {
			rep = append(rep, trace.MakeEvent(0, p))
		}
	}
	streams["repetitive"] = rep
	rng := rand.New(rand.NewSource(42))
	rnd := make([]trace.Event, 500)
	for i := range rnd {
		rnd[i] = trace.MakeEvent(uint32(rng.Intn(3)), uint64(rng.Intn(40)))
	}
	streams["random"] = rnd
	multi := make([]trace.Event, 0, 400)
	for i := 0; i < 100; i++ {
		multi = append(multi,
			trace.MakeEvent(9, uint64(i%7)),
			trace.MakeEvent(200, 3),
			trace.MakeEvent(200, uint64(i%2)),
			trace.MakeEvent(1000, 12345),
		)
	}
	streams["multifunc"] = multi
	return streams
}

// funcNames sizes a synthetic name table to cover every function the
// stream mentions, so Verify accepts the artifact.
func funcNames(events []trace.Event) []string {
	maxFn := uint32(0)
	for _, e := range events {
		if e.Func() > maxFn {
			maxFn = e.Func()
		}
	}
	names := make([]string, maxFn+1)
	for i := range names {
		names[i] = "f"
	}
	return names
}

func buildMonoFor(events []trace.Event) *WPP {
	b := New(funcNames(events), nil, BuildOptions{})
	for _, e := range events {
		b.Add(e)
	}
	return b.Finish(uint64(len(events))).(*WPP)
}

func buildChunkedFor(events []trace.Event, chunkSize uint64) *ChunkedWPP {
	b := newRefBuilder(funcNames(events), nil, chunkSize)
	for _, e := range events {
		b.Add(e)
	}
	return b.Finish(uint64(len(events)))
}

// sameWPP compares the decoded surfaces of two monolithic artifacts,
// ignoring Version (that is the field under test).
func sameWPP(t *testing.T, a, b *WPP) {
	t.Helper()
	if !reflect.DeepEqual(a.Funcs, b.Funcs) {
		t.Fatalf("func tables diverge: %+v vs %+v", a.Funcs, b.Funcs)
	}
	if a.Events != b.Events || a.Instructions != b.Instructions {
		t.Fatalf("headers diverge: (%d,%d) vs (%d,%d)", a.Events, a.Instructions, b.Events, b.Instructions)
	}
	if !reflect.DeepEqual(a.costs, b.costs) {
		t.Fatalf("cost tables diverge: %v vs %v", a.costs, b.costs)
	}
	if !bytes.Equal(grammarBytes(t, a.Grammar), grammarBytes(t, b.Grammar)) {
		t.Fatalf("grammars diverge")
	}
}

// grammarBytes compares snapshots by canonical encoding: a decoded
// snapshot holds empty (non-nil) RHS slices where a built one may hold
// nil, which DeepEqual refuses but the encoding ignores.
func grammarBytes(t *testing.T, sn *sequitur.Snapshot) []byte {
	t.Helper()
	b, _ := sn.AppendEncoding(nil, nil)
	return b
}

// encodedLen is the length of a's encoding.
func encodedLen(t *testing.T, a Artifact) int64 {
	t.Helper()
	n, err := a.Encode(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func sameChunked(t *testing.T, a, b *ChunkedWPP) {
	t.Helper()
	if !reflect.DeepEqual(a.Funcs, b.Funcs) {
		t.Fatalf("func tables diverge")
	}
	if a.ChunkSize != b.ChunkSize || a.Events != b.Events || a.Instructions != b.Instructions || a.PeakLiveRHS != b.PeakLiveRHS {
		t.Fatalf("headers diverge")
	}
	if !reflect.DeepEqual(a.costs, b.costs) {
		t.Fatalf("cost tables diverge")
	}
	if len(a.Chunks) != len(b.Chunks) {
		t.Fatalf("chunk counts diverge: %d vs %d", len(a.Chunks), len(b.Chunks))
	}
	for i := range a.Chunks {
		if !bytes.Equal(grammarBytes(t, a.Chunks[i]), grammarBytes(t, b.Chunks[i])) {
			t.Fatalf("chunk %d grammars diverge", i)
		}
	}
}

// TestWPP2RoundTrip: v2-encode, decode, compare
// against the original, and re-encode byte-identically (the canonical
// re-encoding property the golden corpus relies on).
func TestWPP2RoundTrip(t *testing.T) {
	for name, events := range testStreams() {
		t.Run(name, func(t *testing.T) {
			w := buildMonoFor(events)
			w.Version = FormatV2
			var buf bytes.Buffer
			n, err := w.Encode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("Encode reported %d bytes, wrote %d", n, buf.Len())
			}
			got := decodeWPP(t, buf.Bytes())
			if got.Version != FormatV2 {
				t.Fatalf("decoded Version = %d, want %d", got.Version, FormatV2)
			}
			sameWPP(t, got, w)
			if err := got.Verify(1); err != nil {
				t.Fatalf("decoded artifact fails verify: %v", err)
			}
			var buf2 bytes.Buffer
			if _, err := got.Encode(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatalf("re-encode is not byte-identical")
			}
		})
	}
}

// TestWPC2RoundTrip is the chunked twin of TestWPP2RoundTrip.
func TestWPC2RoundTrip(t *testing.T) {
	for name, events := range testStreams() {
		t.Run(name, func(t *testing.T) {
			c := buildChunkedFor(events, 64)
			c.Version = FormatV2
			var buf bytes.Buffer
			n, err := c.Encode(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("Encode reported %d bytes, wrote %d", n, buf.Len())
			}
			got := decodeChunked(t, buf.Bytes())
			if got.Version != FormatV2 {
				t.Fatalf("decoded Version = %d, want %d", got.Version, FormatV2)
			}
			sameChunked(t, got, c)
			if err := got.Verify(1); err != nil {
				t.Fatalf("decoded artifact fails verify: %v", err)
			}
			var buf2 bytes.Buffer
			if _, err := got.Encode(&buf2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatalf("re-encode is not byte-identical")
			}
		})
	}
}

// TestWPP2DecodeEqualsWPP1Decode is the cross-format differential: the
// same artifact encoded as v1 and as v2 must decode to identical
// surfaces (the only permitted difference is the Version tag).
func TestWPP2DecodeEqualsWPP1Decode(t *testing.T) {
	for name, events := range testStreams() {
		t.Run(name, func(t *testing.T) {
			w := buildMonoFor(events)
			var b1, b2 bytes.Buffer
			w.Version = FormatV1
			if _, err := w.Encode(&b1); err != nil {
				t.Fatal(err)
			}
			w.Version = FormatV2
			if _, err := w.Encode(&b2); err != nil {
				t.Fatal(err)
			}
			sameWPP(t, decodeWPP(t, b1.Bytes()), decodeWPP(t, b2.Bytes()))

			c := buildChunkedFor(events, 32)
			var c1, c2 bytes.Buffer
			c.Version = FormatV1
			if _, err := c.Encode(&c1); err != nil {
				t.Fatal(err)
			}
			c.Version = FormatV2
			if _, err := c.Encode(&c2); err != nil {
				t.Fatal(err)
			}
			sameChunked(t, decodeChunked(t, c1.Bytes()), decodeChunked(t, c2.Bytes()))
		})
	}
}

// TestWPP2NeverLarger is the size regression guard: by construction
// (delta <= absolute in the sorted cost table, rank <= value in the
// grammar terminals) the v2 encoding is at most the v1 size, on every
// stream, in both containers.
func TestWPP2NeverLarger(t *testing.T) {
	for name, events := range testStreams() {
		t.Run(name, func(t *testing.T) {
			w := buildMonoFor(events)
			w.Version = FormatV1
			v1 := encodedLen(t, w)
			w.Version = FormatV2
			if v2 := encodedLen(t, w); v2 > v1 {
				t.Fatalf("WPP2 (%d bytes) exceeds WPP1 (%d bytes)", v2, v1)
			}

			c := buildChunkedFor(events, 64)
			c.Version = FormatV1
			cv1 := encodedLen(t, c)
			c.Version = FormatV2
			if cv2 := encodedLen(t, c); cv2 > cv1 {
				t.Fatalf("WPC2 (%d bytes) exceeds WPC1 (%d bytes)", cv2, cv1)
			}
		})
	}
}

// TestEncodeV2MissingCost: an artifact whose grammar mentions an event
// absent from its cost table cannot be rank-encoded; Encode must fail
// loudly instead of writing an unrepresentable artifact.
func TestEncodeV2MissingCost(t *testing.T) {
	w := buildMonoFor([]trace.Event{trace.MakeEvent(0, 1), trace.MakeEvent(0, 2)})
	delete(w.costs, trace.MakeEvent(0, 2))
	w.Version = FormatV2
	if _, err := w.Encode(&bytes.Buffer{}); err == nil {
		t.Fatal("Encode succeeded with a terminal missing from the cost table")
	}
}

// TestEncodedSizeGolden: on every golden artifact, both containers, at
// both versions, the sizes reported (Encode's count and Stats'
// EncodedBytes) are the length of what Encode writes — the whole
// artifact, header and cost table included — and re-encoding at the
// file's own version reproduces the file.
func TestEncodedSizeGolden(t *testing.T) {
	for name, data := range goldenArtifacts(t) {
		a, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, version := range []uint8{FormatV1, FormatV2} {
			SetVersion(a, version)
			var buf bytes.Buffer
			n, err := a.Encode(&buf)
			if err != nil {
				t.Fatalf("%s v%d: %v", name, version, err)
			}
			if got := a.Stats().EncodedBytes; n != int64(buf.Len()) || got != n {
				t.Errorf("%s v%d: Encode reported %d and Stats %d, Encode wrote %d", name, version, n, got, buf.Len())
			}
			if buf.Bytes()[3] == data[3] && !bytes.Equal(buf.Bytes(), data) { // same version digit
				t.Errorf("%s v%d: re-encoding differs from the file", name, version)
			}
		}
	}
}
