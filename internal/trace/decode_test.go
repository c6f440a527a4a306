package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// refReader is the byte-at-a-time WPT1 decoder the block Reader
// replaced, kept verbatim as the reference FuzzFrameDecode holds the
// Reader to.
type refReader struct {
	br *bufio.Reader
}

func newRefReader(r io.Reader) (*refReader, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("trace: %w: reading magic: %v", ErrTruncated, err)
		}
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != traceMagic {
		return nil, fmt.Errorf("trace: %w %q", ErrBadMagic, m[:])
	}
	return &refReader{br: br}, nil
}

func (r *refReader) Read() (Event, error) {
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("trace: %w: event cut mid-varint", ErrTruncated)
		}
		return 0, fmt.Errorf("trace: %w", err)
	}
	if err := CheckEvent(Event(v)); err != nil {
		return 0, err
	}
	return Event(v), nil
}

// refEncode is the bufio/PutUvarint encoding the Writer produced before
// AppendFrame, kept as the byte-identity reference.
func refEncode(events []Event) []byte {
	var out bytes.Buffer
	bw := bufio.NewWriter(&out)
	bw.Write(traceMagic[:])
	var buf [binary.MaxVarintLen64]byte
	for _, e := range events {
		n := binary.PutUvarint(buf[:], uint64(e))
		bw.Write(buf[:n])
	}
	bw.Flush()
	return out.Bytes()
}

// blockReader hands out data at most size bytes per Read, so the
// Reader's blocks can be cut anywhere: inside the magic, inside a
// varint, or between events.
type blockReader struct {
	data []byte
	size int
}

func (b *blockReader) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), b.size)], b.data)
	b.data = b.data[n:]
	return n, nil
}

// sentinel names the typed error err matches: "" for none (a clean
// end), otherwise the wire sentinel, or "other". The reference reports
// a varint past 64 bits with binary's untyped overflow error, which
// the Reader wraps in ErrEventRange.
func sentinel(err error) string {
	switch {
	case err == nil || err == io.EOF:
		return ""
	case errors.Is(err, ErrBadMagic):
		return "bad magic"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrEventRange), strings.Contains(err.Error(), "varint overflows"):
		return "event range"
	}
	return "other"
}

// decodeRef decodes data with the reference reader, delivering at most
// block bytes per read.
func decodeRef(data []byte, block int) ([]Event, error) {
	r, err := newRefReader(&blockReader{data, block})
	if err != nil {
		return nil, err
	}
	var events []Event
	for {
		e, err := r.Read()
		if err != nil {
			return events, err
		}
		events = append(events, e)
	}
}

// decodeBatches decodes data with the Reader in batches of batch
// events, delivering at most block bytes per read, and checks that the
// error, once returned, sticks.
func decodeBatches(t *testing.T, data []byte, block, batch int) ([]Event, error) {
	r, err := NewReader(&blockReader{data, block})
	if err != nil {
		return nil, err
	}
	var events []Event
	dst := make([]Event, batch)
	for {
		n, err := r.ReadBatch(dst)
		events = append(events, dst[:n]...)
		if err != nil {
			if n2, err2 := r.ReadBatch(dst); n2 != 0 || sentinel(err2) != sentinel(err) || err2 == nil {
				t.Fatalf("error %v did not stick: next call gave %d events, %v", err, n2, err2)
			}
			return events, err
		}
	}
}

// FuzzFrameDecode holds the block Reader to the byte-at-a-time
// reference on arbitrary bytes, for every way a stream can arrive: read
// blocks of 1 to 64 bytes (smaller than one varint and than the magic)
// and batches of 1 to 64 events, plus the 512-event batches a trace
// replay reads. All must deliver the same events, then the same error
// sentinel.
func FuzzFrameDecode(f *testing.F) {
	for _, c := range wireErrorCases(f) {
		for _, block := range []uint8{0, 2, 63} {
			f.Add(c.data, block, uint8(0))
			f.Add(c.data, block, uint8(5))
		}
	}
	f.Add(AppendFrame(nil, randomEvents(300, 5)), uint8(6), uint8(63))
	f.Fuzz(func(t *testing.T, data []byte, blockSel, batchSel uint8) {
		block, batch := 1+int(blockSel)%64, 1+int(batchSel)%64
		want, wantErr := decodeRef(data, block)
		got, err := decodeBatches(t, data, block, batch)
		if sentinel(err) != sentinel(wantErr) || !equalEvents(got, want) {
			t.Fatalf("block %d batch %d: Reader gave %d events, %v; reference %d events, %v",
				block, batch, len(got), err, len(want), wantErr)
		}
		if err != nil && sentinel(err) == "other" {
			t.Fatalf("untyped decode error %v", err)
		}

		replayed, err := decodeBatches(t, data, block, 512)
		if sentinel(err) != sentinel(wantErr) || len(replayed) != len(want) || !equalEvents(replayed, want) {
			t.Fatalf("block %d batch 512: Reader gave %d events, %v; reference %d events, %v",
				block, len(replayed), err, len(want), wantErr)
		}
	})
}

func equalEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAppendFrameMatchesOldEncoding pins AppendFrame and the Writer to
// the bytes the bufio/PutUvarint encoder wrote, on random events across
// the whole packed range.
func TestAppendFrameMatchesOldEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 7, 4096, 20000} {
		events := make([]Event, n)
		for i := range events {
			events[i] = MakeEvent(uint32(rng.Intn(MaxFuncs)), rng.Uint64()>>(64-PathBits+rng.Intn(2)*20))
		}
		want := refEncode(events)
		if got := AppendFrame(nil, events); !bytes.Equal(got, want) {
			t.Fatalf("%d events: AppendFrame differs from the old encoding", n)
		}
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
		if !bytes.Equal(buf.Bytes(), want) || w.BytesWritten() != int64(len(want)) {
			t.Fatalf("%d events: Writer differs from the old encoding", n)
		}
	}
}

// TestReaderResetReuses pins that one Reader decodes stream after
// stream through Reset, and that a failed Reset leaves it reusable.
func TestReaderResetReuses(t *testing.T) {
	var r Reader
	dst := make([]Event, 100)
	for i, data := range [][]byte{
		AppendFrame(nil, randomEvents(50, 1)),
		[]byte("XXXX"),
		AppendFrame(nil, randomEvents(70, 2)),
	} {
		err := r.Reset(bytes.NewReader(data))
		if i == 1 {
			if !errors.Is(err, ErrBadMagic) {
				t.Fatalf("Reset on bad magic: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		n, err := r.ReadBatch(dst)
		if err != io.EOF || !equalEvents(dst[:n], randomEvents(n, int64(i/2+1))) || n != 50+20*(i/2) {
			t.Fatalf("stream %d: %d events, %v", i, n, err)
		}
	}
}
