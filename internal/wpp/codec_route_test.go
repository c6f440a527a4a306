package wpp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/trace"
)

// encodeMono builds and encodes a small monolithic artifact.
func encodeMonoBytes(t testing.TB) []byte {
	t.Helper()
	b := NewMonoBuilder([]string{"f"}, nil)
	for i := 0; i < 120; i++ {
		b.Add(trace.MakeEvent(0, uint64(i%4)))
	}
	var buf bytes.Buffer
	if _, err := b.Finish(120).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeChunked builds and encodes a small chunked artifact.
func encodeChunkedBytes(t testing.TB) []byte {
	t.Helper()
	b := newRefBuilder([]string{"f"}, nil, 16)
	for i := 0; i < 120; i++ {
		b.Add(trace.MakeEvent(0, uint64(i%4)))
	}
	var buf bytes.Buffer
	if _, err := b.Finish(120).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeWPP decodes data, which must hold a monolithic artifact.
func decodeWPP(t testing.TB, data []byte) *WPP {
	t.Helper()
	a, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := a.(*WPP)
	if !ok {
		t.Fatalf("decoded %T, want *WPP", a)
	}
	return w
}

// decodeChunked decodes data, which must hold a chunked artifact.
func decodeChunked(t testing.TB, data []byte) *ChunkedWPP {
	t.Helper()
	a, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := a.(*ChunkedWPP)
	if !ok {
		t.Fatalf("decoded %T, want *ChunkedWPP", a)
	}
	return c
}

// TestDecodeArtifactRoundTrip decodes both containers through Decode
// and checks the concrete types come back.
func TestDecodeArtifactRoundTrip(t *testing.T) {
	a, err := Decode(encodeMonoBytes(t))
	if err != nil {
		t.Fatal(err)
	}
	w, ok := a.(*WPP)
	if !ok {
		t.Fatalf("monolithic bytes decoded as %T", a)
	}
	if w.NumEvents() != 120 {
		t.Fatalf("events = %d, want 120", w.NumEvents())
	}

	a, err = Decode(encodeChunkedBytes(t))
	if err != nil {
		t.Fatal(err)
	}
	cw, ok := a.(*ChunkedWPP)
	if !ok {
		t.Fatalf("chunked bytes decoded as %T", a)
	}
	if cw.NumEvents() != 120 {
		t.Fatalf("events = %d, want 120", cw.NumEvents())
	}
}

// TestDecodeArtifactDispatchErrors drives the magic check's failure
// modes: inputs rejected before any header field is read.
func TestDecodeArtifactDispatchErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty file", nil, "reading magic"},
		{"truncated magic", []byte("WP"), "reading magic"},
		{"unknown version", []byte("WPP9rest-of-file"), "bad magic"},
		{"unknown chunked version", []byte("WPC9rest-of-file"), "bad magic"},
		{"foreign magic", []byte("ELF\x7f....."), "bad magic"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Decode(c.data)
			if err == nil {
				t.Fatalf("Decode accepted %q", c.data)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestDecodeArtifactUnknownMagicNamesFormats checks the unknown-magic
// error lists the formats Decode does know, so a user holding a future
// or corrupt artifact sees what this build can read.
func TestDecodeArtifactUnknownMagicNamesFormats(t *testing.T) {
	_, err := Decode([]byte("WPP9...."))
	if err == nil {
		t.Fatal("unknown version accepted")
	}
	for _, magic := range []string{"WPP1", "WPP2", "WPC1", "WPC2"} {
		if !strings.Contains(err.Error(), magic) {
			t.Errorf("error %q does not list known format %q", err, magic)
		}
	}
}

// TestDecodeArtifactTruncatedBody checks truncation after a valid magic
// fails with an error, not a panic.
func TestDecodeArtifactTruncatedBody(t *testing.T) {
	for name, data := range map[string][]byte{
		"mono":    encodeMonoBytes(t),
		"chunked": encodeChunkedBytes(t),
	} {
		t.Run(name, func(t *testing.T) {
			for _, cut := range []int{4, 5, len(data) / 2, len(data) - 1} {
				if _, err := Decode(data[:cut]); err == nil {
					t.Errorf("truncation at %d accepted", cut)
				}
			}
		})
	}
}

// TestDecodeArtifactRejectsOutOfRangeEvent plants a cost-table entry
// whose event carries a function ID at MaxFuncs — representable in the
// wire uvarint but not constructible through MakeEvent — and checks the
// event validation on the decode path rejects the artifact.
func TestDecodeArtifactRejectsOutOfRangeEvent(t *testing.T) {
	bad := trace.Event(uint64(trace.MaxFuncs) << trace.PathBits)
	if err := trace.CheckEvent(bad); err == nil {
		t.Fatal("sanity: crafted event unexpectedly valid")
	}

	b := NewMonoBuilder([]string{"f"}, nil)
	for i := 0; i < 20; i++ {
		b.Add(trace.MakeEvent(0, uint64(i%3)))
	}
	w := b.Finish(20)
	w.costs[bad] = 1
	var buf bytes.Buffer
	if _, err := w.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := Decode(buf.Bytes())
	if err == nil {
		t.Fatal("artifact with out-of-range cost-table event accepted")
	}
	if !strings.Contains(err.Error(), "cost table") {
		t.Fatalf("error %q does not blame the cost table", err)
	}
}
