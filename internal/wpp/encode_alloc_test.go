package wpp

import (
	"io"
	"runtime"
	"testing"

	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
)

// TestEncodeV2AllocatesLikeV1: a v2 encode ranks each terminal as it
// writes it, with no ranked copy of the grammars, so it allocates about
// what a v1 encode of the same artifact does. The artifact is matrix at
// arg 24 (362,377 events) in chunks of 4096 (89 chunks); v2 may
// allocate at most twice v1's bytes.
func TestEncodeV2AllocatesLikeV1(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 362k-event trace")
	}
	w, err := workloads.ByName("matrix")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := wlc.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	b := New(nil, nil, BuildOptions{ChunkSize: 4096, Workers: 1})
	m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(b.Add)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("main", 24); err != nil {
		t.Fatal(err)
	}
	c := b.Finish(m.Stats().Instructions).(*ChunkedWPP)
	if len(c.Chunks) != 89 {
		t.Fatalf("%d chunks, want 89", len(c.Chunks))
	}
	// The fewest bytes any of three encodes allocates, so a collection
	// or a stray goroutine in one run does not count.
	alloc := func(version uint8) uint64 {
		c.Version = version
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := c.Encode(io.Discard); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	v1, v2 := alloc(FormatV1), alloc(FormatV2)
	t.Logf("encode allocates %d bytes as v1, %d as v2", v1, v2)
	if v2 > 2*v1 {
		t.Fatalf("v2 encode allocates %d bytes, more than twice v1's %d", v2, v1)
	}
}
