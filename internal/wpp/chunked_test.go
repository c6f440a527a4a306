package wpp

import (
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
)

func buildChunked(t *testing.T, src string, chunkSize uint64, args ...int64) (*ChunkedWPP, []trace.Event) {
	t.Helper()
	p, err := wlc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var raw []trace.Event
	var b *refBuilder
	m, err := interp.New(p, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) {
		raw = append(raw, e)
		b.Add(e)
	})})
	if err != nil {
		t.Fatal(err)
	}
	names := p.FuncNames()
	b = newRefBuilder(names, m.Numberings(), chunkSize)
	if _, err := m.Run("main", args...); err != nil {
		t.Fatal(err)
	}
	return b.Finish(m.Stats().Instructions), raw
}

func TestChunkedWalkMatchesRaw(t *testing.T) {
	for _, chunkSize := range []uint64{1, 7, 100, 1 << 20} {
		c, raw := buildChunked(t, loopProgram, chunkSize, 150)
		var walked []trace.Event
		c.Walk(func(e trace.Event) bool {
			walked = append(walked, e)
			return true
		})
		if !reflect.DeepEqual(walked, raw) {
			t.Fatalf("chunkSize=%d: walk mismatch", chunkSize)
		}
		if err := c.Verify(1); err != nil {
			t.Fatalf("chunkSize=%d: %v", chunkSize, err)
		}
		if c.Events != uint64(len(raw)) {
			t.Fatalf("chunkSize=%d: events %d != %d", chunkSize, c.Events, len(raw))
		}
		wantChunks := (len(raw) + int(chunkSize) - 1) / int(chunkSize)
		if len(c.Chunks) != wantChunks {
			t.Fatalf("chunkSize=%d: %d chunks, want %d", chunkSize, len(c.Chunks), wantChunks)
		}
	}
}

func TestChunkedBoundsLiveMemory(t *testing.T) {
	small, _ := buildChunked(t, loopProgram, 64, 400)
	mono, _ := buildChunked(t, loopProgram, 1<<30, 400)
	if small.PeakLiveRHS > 64+2 {
		t.Fatalf("peak live symbols %d exceeds chunk size bound", small.PeakLiveRHS)
	}
	if small.PeakLiveRHS >= mono.PeakLiveRHS && mono.PeakLiveRHS > 70 {
		t.Fatalf("chunking did not reduce peak memory: %d vs %d", small.PeakLiveRHS, mono.PeakLiveRHS)
	}
}

func TestChunkedSizeTradeoff(t *testing.T) {
	// Smaller chunks → worse compression (repetition across boundaries is
	// lost); the total grammar bytes must be monotone-ish.
	tiny, _ := buildChunked(t, loopProgram, 16, 400)
	big, _ := buildChunked(t, loopProgram, 1<<30, 400)
	if tiny.EncodedSize() <= big.EncodedSize() {
		t.Fatalf("tiny chunks (%dB) should cost more than monolithic (%dB)",
			tiny.EncodedSize(), big.EncodedSize())
	}
}

func TestChunkedStats(t *testing.T) {
	c, raw := buildChunked(t, loopProgram, 50, 200)
	st := c.Stats()
	if st.Events != uint64(len(raw)) || st.Chunks != len(c.Chunks) {
		t.Fatalf("stats inconsistent: %+v", st)
	}
	if st.Rules == 0 || st.RHSSymbols == 0 || st.GrammarBytes == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
}

func TestChunkedEmpty(t *testing.T) {
	b := newRefBuilder(nil, nil, 10)
	c := b.Finish(0)
	if err := c.Verify(1); err != nil {
		t.Fatal(err)
	}
	n := 0
	c.Walk(func(trace.Event) bool { n++; return true })
	if n != 0 {
		t.Fatal("empty chunked WPP walked events")
	}
}

func TestChunkedWalkEarlyStop(t *testing.T) {
	c, _ := buildChunked(t, loopProgram, 10, 100)
	n := 0
	c.Walk(func(trace.Event) bool {
		n++
		return n < 25 // crosses chunk boundaries
	})
	if n != 25 {
		t.Fatalf("early stop at %d", n)
	}
}
