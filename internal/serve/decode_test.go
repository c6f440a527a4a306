package serve

import (
	"bytes"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/trace"
)

// TestVarintOverflowFrame400 pins that a varint past 64 bits is a typed
// wire error: 400, reported as an out-of-range event.
func TestVarintOverflowFrame400(t *testing.T) {
	_, c := newTestServer(t, Config{})
	info, err := c.Open(OpenRequest{})
	if err != nil {
		t.Fatal(err)
	}
	ok := trace.AppendFrame(nil, []trace.Event{trace.MakeEvent(1, 2)})
	for _, frame := range [][]byte{
		append(bytes.Clone(ok), bytes.Repeat([]byte{0x80}, 10)...),
		append(append(bytes.Clone(ok), bytes.Repeat([]byte{0x80}, 9)...), 0x02),
	} {
		_, err := c.IngestRaw(info.ID, frame)
		if !IsStatus(err, http.StatusBadRequest) || !strings.Contains(err.Error(), "event out of range") {
			t.Fatalf("overflowing varint: got %v, want 400 event out of range", err)
		}
	}
	if got, err := c.Info(info.ID); err != nil || got.Events != 0 {
		t.Fatalf("session dirtied by rejected frames: %+v, %v", got, err)
	}
}

// TestFrameErrorOrder pins which error a frame with two faults reports:
// the one that comes first in the stream, as when events were checked
// one at a time while decoding.
func TestFrameErrorOrder(t *testing.T) {
	_, c := newTestServer(t, Config{})
	info, err := c.Open(OpenRequest{Workload: "matrix"})
	if err != nil {
		t.Fatal(err)
	}
	alien := trace.MakeEvent(1000, 5) // no such function in matrix
	good := capture(t, "matrix").Events[:3]
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string
	}{
		{"alien event, then a cut varint",
			append(EncodeFrame(append(slices.Clone(good), alien)), 0x80), "not in session program"},
		{"cut varint only", append(EncodeFrame(good), 0x80), "cut mid-varint"},
		{"alien event, then an overflow",
			append(EncodeFrame([]trace.Event{alien}), bytes.Repeat([]byte{0xff}, 10)...), "not in session program"},
	} {
		_, err := c.IngestRaw(info.ID, tc.frame)
		if !IsStatus(err, http.StatusBadRequest) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want 400 %q", tc.name, err, tc.want)
		}
	}
}

// matrixFrames encodes the small matrix capture as 4096-event frames and
// returns them with a session that validates against matrix.
func matrixFrames(tb testing.TB) ([][]byte, *session, int) {
	c, err := experiments.CaptureWorkload("matrix", experiments.Small)
	if err != nil {
		tb.Fatal(err)
	}
	var frames [][]byte
	for off := 0; off < len(c.Events); off += 4096 {
		frames = append(frames, EncodeFrame(c.Events[off:min(off+4096, len(c.Events))]))
	}
	return frames, &session{numPaths: numPathsOf(c.Nums)}, len(c.Events)
}

// decodeAll runs every frame through the pooled decode and the session
// check, as the ingest handler does.
func decodeAll(tb testing.TB, frames [][]byte, ss *session, rd *bytes.Reader, buf []trace.Event) []trace.Event {
	for _, f := range frames {
		rd.Reset(f)
		var err error
		if buf, err = readFrame(rd, int64(len(f)), buf[:0]); err != nil {
			tb.Fatal(err)
		}
		if err := ss.checkEvents(buf); err != nil {
			tb.Fatal(err)
		}
	}
	return buf
}

// TestDecodeFrameAllocs is the allocation guard on the ingest decode: a
// warm pooled reader and event buffer decode and check a frame with no
// allocation.
func TestDecodeFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	frames, ss, _ := matrixFrames(t)
	rd := bytes.NewReader(nil)
	buf := decodeAll(t, frames, ss, rd, nil)
	if n := testing.AllocsPerRun(20, func() { buf = decodeAll(t, frames, ss, rd, buf) }); n != 0 {
		t.Fatalf("warm decode allocates %.1f times per pass", n)
	}
}

// BenchmarkDecodeFrame measures ingest frame decoding, 4096-event matrix
// frames through the pooled reader and the session check, in Mev/s.
func BenchmarkDecodeFrame(b *testing.B) {
	frames, ss, events := matrixFrames(b)
	rd := bytes.NewReader(nil)
	buf := decodeAll(b, frames, ss, rd, nil)
	b.ResetTimer()
	for range b.N {
		buf = decodeAll(b, frames, ss, rd, buf)
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mev/s")
}
