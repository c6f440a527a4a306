package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// wireTrace encodes events the way Writer does, then applies mutate to
// the raw bytes, simulating what a network peer could deliver.
func wireTrace(t testing.TB, events []Event, mutate func([]byte) []byte) []byte {
	t.Helper()
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
	b := buf.Bytes()
	if mutate != nil {
		b = mutate(b)
	}
	return b
}

// rawEvents appends arbitrary uvarints after a valid magic, bypassing the
// Writer's type safety so out-of-range values can reach the decoder.
func rawEvents(values ...uint64) []byte {
	b := []byte("WPT1")
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range values {
		n := binary.PutUvarint(tmp[:], v)
		b = append(b, tmp[:n]...)
	}
	return b
}

// wireCase is one malformed (or barely well-formed) WPT1 input and the
// decoder's required answer to it.
type wireCase struct {
	name string
	data []byte
	want error
	// yields is how many events must be delivered before the error.
	yields int
}

// wireErrorCases are the malformed inputs a trace-ingestion server must
// survive: truncated batch frames (bodies cut mid-varint or mid-magic),
// varints past 64 bits, and event values no Ball–Larus numbering could
// have produced.
func wireErrorCases(t testing.TB) []wireCase {
	valid := []Event{MakeEvent(1, 2), MakeEvent(3, 4), MakeEvent(5, 6)}
	return []wireCase{
		{"empty body", nil, ErrTruncated, 0},
		{"magic cut short", []byte("WP"), ErrTruncated, 0},
		{"wrong magic", []byte("XXXXzzzz"), ErrBadMagic, 0},
		{"wpp artifact magic", []byte("WPP1\x00\x00"), ErrBadMagic, 0},
		{
			"frame cut mid-varint",
			wireTrace(t, []Event{MakeEvent(9, 1<<20), MakeEvent(9, 1<<21)}, func(b []byte) []byte {
				return b[:len(b)-1] // drop the final continuation byte
			}),
			ErrTruncated, 1,
		},
		{
			"frame cut at a varint start keeps the prefix",
			wireTrace(t, valid, func(b []byte) []byte {
				// The last event of `valid` is one varint; removing it
				// exactly leaves a well-formed shorter stream.
				return b[:len(b)-len(wireTrace(t, valid[2:], nil))+4]
			}),
			nil, 2,
		},
		{"function ID beyond MaxFuncs", rawEvents(uint64(MaxFuncs) << PathBits), ErrEventRange, 0},
		{"max uint64 event", rawEvents(1<<64 - 1), ErrEventRange, 0},
		{
			"bad event after good ones",
			rawEvents(uint64(MakeEvent(1, 1)), uint64(MakeEvent(2, 2)), uint64(MaxFuncs+7)<<PathBits),
			ErrEventRange, 2,
		},
		{"varint of ten continuation bytes", append([]byte("WPT1"), bytes.Repeat([]byte{0x80}, 10)...), ErrEventRange, 0},
		{"varint past 64 bits", append(append([]byte("WPT1"), bytes.Repeat([]byte{0x80}, 9)...), 0x02), ErrEventRange, 0},
	}
}

// TestReaderSourceWireErrors drives the Reader's error paths with
// wireErrorCases, reading in ReadBatch loops as a trace replay does.
// Every case must return the typed sentinel the server maps to a 400 —
// never panic, never deliver the bad event.
func TestReaderSourceWireErrors(t *testing.T) {
	cases := wireErrorCases(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := decodeBatches(t, c.data, len(c.data)+1, 2)
			if c.want == nil {
				if err != io.EOF {
					t.Fatalf("ReadBatch: unexpected error %v", err)
				}
			} else if !errors.Is(err, c.want) {
				t.Fatalf("ReadBatch: got error %v, want %v", err, c.want)
			}
			if len(got) != c.yields {
				t.Fatalf("ReadBatch delivered %d events, want %d", len(got), c.yields)
			}
			for _, e := range got {
				if CheckEvent(e) != nil {
					t.Fatalf("ReadBatch delivered out-of-range event %v", e)
				}
			}
		})
	}
}

// TestReaderValidatesEachEvent pins that the one-event Reader.Read
// validates like ReadBatch: the good event first, then the typed error.
func TestReaderValidatesEachEvent(t *testing.T) {
	r, err := NewReader(bytes.NewReader(rawEvents(uint64(MakeEvent(4, 4)), uint64(MaxFuncs)<<PathBits)))
	if err != nil {
		t.Fatal(err)
	}
	if e, err := r.Read(); err != nil || e != MakeEvent(4, 4) {
		t.Fatalf("first Read: %v, %v", e, err)
	}
	if _, err := r.Read(); !errors.Is(err, ErrEventRange) {
		t.Fatalf("second Read: got %v, want ErrEventRange", err)
	}
}

// TestCheckEventWrapsRangeSentinel pins the errors.Is contract servers
// rely on to map validation failures to client errors.
func TestCheckEventWrapsRangeSentinel(t *testing.T) {
	if err := CheckEvent(Event(uint64(MaxFuncs) << PathBits)); !errors.Is(err, ErrEventRange) {
		t.Fatalf("CheckEvent: got %v, want ErrEventRange", err)
	}
	if _, err := NewEvent(0, 1<<PathBits); !errors.Is(err, ErrEventRange) {
		t.Fatalf("NewEvent: got %v, want ErrEventRange", err)
	}
	if err := CheckEvent(MakeEvent(MaxFuncs-1, 1<<PathBits-1)); err != nil {
		t.Fatalf("CheckEvent rejected a maximal valid event: %v", err)
	}
}

// TestReaderEOFStaysClean pins that a well-formed stream still ends in a
// bare io.EOF (not ErrTruncated), which callers treat as a clean end.
func TestReaderEOFStaysClean(t *testing.T) {
	r, err := NewReader(bytes.NewReader(wireTrace(t, []Event{MakeEvent(1, 1)}, nil)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}
}
