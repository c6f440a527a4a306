package trace

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEventPacking(t *testing.T) {
	cases := []struct {
		fn   uint32
		path uint64
	}{
		{0, 0},
		{1, 1},
		{MaxFuncs - 1, 1<<PathBits - 1},
		{42, 123456789},
	}
	for _, c := range cases {
		e := MakeEvent(c.fn, c.path)
		if e.Func() != c.fn || e.Path() != c.path {
			t.Fatalf("MakeEvent(%d,%d) round-trips to (%d,%d)", c.fn, c.path, e.Func(), e.Path())
		}
	}
}

func TestEventPackingQuick(t *testing.T) {
	f := func(fn uint32, path uint64) bool {
		fn %= MaxFuncs
		path %= 1 << PathBits
		e := MakeEvent(fn, path)
		return e.Func() == fn && e.Path() == path
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMakeEventPanicsOutOfRange(t *testing.T) {
	for name, fn := range map[string]func(){
		"func": func() { MakeEvent(MaxFuncs, 0) },
		"path": func() { MakeEvent(0, 1<<PathBits) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEventString(t *testing.T) {
	if s := MakeEvent(3, 7).String(); s != "f3:p7" {
		t.Fatalf("String = %q", s)
	}
}

func randomEvents(n int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	events := make([]Event, n)
	for i := range events {
		events[i] = MakeEvent(uint32(rng.Intn(100)), uint64(rng.Intn(5000)))
	}
	return events
}

func TestWriterReaderRoundTrip(t *testing.T) {
	events := randomEvents(5000, 21)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != uint64(len(events)) {
		t.Fatalf("Events() = %d, want %d", w.Events(), len(events))
	}
	if w.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten = %d, buffer holds %d", w.BytesWritten(), buf.Len())
	}
	if want := EncodedSize(events); w.BytesWritten() != want {
		t.Fatalf("BytesWritten = %d, EncodedSize predicts %d", w.BytesWritten(), want)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []Event
	for {
		e, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, e)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatal("round trip mismatch")
	}
}

func TestReaderRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX123"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestDeflateSizeMatchesDeflate pins DeflateSize to the length of the
// DEFLATE stream of the events' varints, written in one piece, which
// round-trips back to the events.
func TestDeflateSizeMatchesDeflate(t *testing.T) {
	events := randomEvents(2000, 23)
	var data bytes.Buffer
	fw, err := flate.NewWriter(&data, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	raw := AppendFrame(nil, events)[len(traceMagic):]
	if _, err := fw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	size, err := DeflateSize(events, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(data.Len()) {
		t.Fatalf("DeflateSize = %d, a one-piece DEFLATE stream is %d bytes", size, data.Len())
	}
	back, err := io.ReadAll(flate.NewReader(&data))
	if err != nil || !bytes.Equal(back, raw) {
		t.Fatalf("DEFLATE stream does not round-trip: %v", err)
	}
}

func TestDeflateCompressesRepetition(t *testing.T) {
	// A highly repetitive trace must compress far below its raw size.
	events := make([]Event, 100000)
	for i := range events {
		events[i] = MakeEvent(1, uint64(i%4))
	}
	raw := EncodedSize(events)
	size, err := DeflateSize(events, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if size*20 > raw {
		t.Fatalf("repetitive trace compressed only %d -> %d", raw, size)
	}
}

func TestFixedSize(t *testing.T) {
	if got := FixedSize(make([]Event, 10)); got != 80 {
		t.Fatalf("FixedSize = %d, want 80", got)
	}
}

func TestBuffer(t *testing.T) {
	var b Buffer
	b.Add(MakeEvent(1, 2))
	b.Add(MakeEvent(3, 4))
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Events[1] != MakeEvent(3, 4) {
		t.Fatal("wrong event stored")
	}
}
