package wpp

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/trace"
)

func TestChunkedEncodeRoundTrip(t *testing.T) {
	events, instrs := eventsFor(t, "expr")
	for _, cs := range []uint64{1, 100, 1 << 20} {
		orig := feedParallel(events, instrs, cs, 4)
		var buf bytes.Buffer
		n, err := orig.Encode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("Encode reported %d bytes, wrote %d", n, buf.Len())
		}
		got := decodeChunked(t, buf.Bytes())
		if err := got.Verify(); err != nil {
			t.Fatal(err)
		}
		if got.Events != orig.Events || got.ChunkSize != orig.ChunkSize ||
			got.Instructions != orig.Instructions || got.PeakLiveRHS != orig.PeakLiveRHS {
			t.Fatalf("header fields diverge: %+v", got)
		}
		if !reflect.DeepEqual(got.Chunks, orig.Chunks) {
			t.Fatalf("chunk=%d: chunks diverge after round trip", cs)
		}
		if !reflect.DeepEqual(got.Funcs, orig.Funcs) {
			t.Fatal("func table diverges after round trip")
		}
		if !reflect.DeepEqual(expand(got), expand(orig)) {
			t.Fatal("expansion diverges after round trip")
		}
		if got.DistinctPaths() != orig.DistinctPaths() {
			t.Fatal("cost table diverges after round trip")
		}
		// Re-encoding the decoded artifact must be byte-identical.
		var buf2 bytes.Buffer
		if _, err := got.Encode(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatal("re-encoding is not byte-identical")
		}
	}
}

// TestDecodeAny decodes both containers through the one Decode entry
// point and checks junk is refused.
func TestDecodeAny(t *testing.T) {
	mb := NewMonoBuilder([]string{"f"}, nil)
	cb := newRefBuilder([]string{"f"}, nil, 16)
	for i := 0; i < 100; i++ {
		mb.Add(trace.MakeEvent(0, uint64(i%3)))
		cb.Add(trace.MakeEvent(0, uint64(i%3)))
	}
	var mbuf, cbuf bytes.Buffer
	if _, err := mb.Finish(100).Encode(&mbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Finish(100).Encode(&cbuf); err != nil {
		t.Fatal(err)
	}
	if err := decodeWPP(t, mbuf.Bytes()).Verify(); err != nil {
		t.Fatal(err)
	}
	if err := decodeChunked(t, cbuf.Bytes()).Verify(); err != nil {
		t.Fatal(err)
	}
	for _, junk := range [][]byte{[]byte("nope"), nil} {
		if _, err := Decode(junk); err == nil {
			t.Fatalf("Decode accepted %q", junk)
		}
	}
}

func TestDecodeChunkedRejectsCorruption(t *testing.T) {
	cb := newRefBuilder(nil, nil, 8)
	for i := 0; i < 64; i++ {
		cb.Add(trace.MakeEvent(0, uint64(i%4)))
	}
	c := cb.Finish(64)
	var buf bytes.Buffer
	if _, err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Truncations anywhere must produce an error, never a panic.
	for cut := 0; cut < len(data); cut += 7 {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Wrong magic.
	bad := append([]byte("WPPX"), data[4:]...)
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}
