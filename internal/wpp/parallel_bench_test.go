package wpp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/obsv"
	"repro/internal/trace"
)

// benchStream returns a large repetitive stream typical of loopy
// programs: the shape SEQUITUR is built for, and big enough that chunk
// compression dominates the builder's cost.
func benchStream(n int) []trace.Event {
	rng := rand.New(rand.NewSource(42))
	events := make([]trace.Event, n)
	for i := range events {
		if rng.Intn(8) > 0 && i >= 16 {
			events[i] = events[i-16]
		} else {
			events[i] = trace.MakeEvent(uint32(rng.Intn(4)), uint64(rng.Intn(40)))
		}
	}
	return events
}

const benchChunk = 4096

// Run these with -cpu to see scheduling effects, e.g.:
//
//	go test ./internal/wpp/ -bench 'ChunkedBuild|ParallelBuild' -cpu 1,2,4

func BenchmarkChunkedBuildReference(b *testing.B) {
	events := benchStream(1 << 18)
	b.SetBytes(int64(len(events) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cb := newRefBuilder(nil, nil, benchChunk)
		for _, e := range events {
			cb.Add(e)
		}
		cb.Finish(uint64(len(events)))
	}
}

func benchmarkParallelBuild(b *testing.B, workers int) {
	events := benchStream(1 << 18)
	b.SetBytes(int64(len(events) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb := New(nil, nil, BuildOptions{ChunkSize: benchChunk, Workers: workers})
		for _, e := range events {
			pb.Add(e)
		}
		pb.Finish(uint64(len(events)))
	}
}

func BenchmarkParallelBuild1(b *testing.B) { benchmarkParallelBuild(b, 1) }
func BenchmarkParallelBuild2(b *testing.B) { benchmarkParallelBuild(b, 2) }
func BenchmarkParallelBuild4(b *testing.B) { benchmarkParallelBuild(b, 4) }
func BenchmarkParallelBuildN(b *testing.B) { benchmarkParallelBuild(b, runtime.GOMAXPROCS(0)) }

// BenchmarkParallelBuildWorkloads runs both shapes of the one builder
// on workload streams: chunked at 1 and GOMAXPROCS workers, and
// monolithic (one chunk on one worker).
func BenchmarkParallelBuildWorkloads(b *testing.B) {
	for _, name := range []string{"compress", "expr", "sort"} {
		events, _ := eventsFor(b, name)
		run := func(label string, opts BuildOptions) {
			b.Run(name+"/"+label, func(b *testing.B) {
				b.SetBytes(int64(len(events) * 8))
				for i := 0; i < b.N; i++ {
					pb := New(nil, nil, opts)
					for _, e := range events {
						pb.Add(e)
					}
					pb.Finish(uint64(len(events)))
				}
			})
		}
		for _, nw := range []int{1, runtime.GOMAXPROCS(0)} {
			run("w="+itoa(nw), BuildOptions{ChunkSize: 1024, Workers: nw})
		}
		run("mono", BuildOptions{})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestParallelOverheadBound is the benchmark regression guard: the
// builder at Workers=1 must stay within 1.2x of the per-event reference
// build's wall time on the same stream (plus a small absolute grace so
// sub-millisecond jitter cannot fail the build). It runs for a chunked
// build against a chunked reference, and for a monolithic build against
// a one-grammar reference. The builder's only extra work at one worker
// is copying events into batches and one channel hop per batch, which is
// far cheaper than grammar construction; a bigger gap means the pipeline
// regressed — for example, a channel operation per Add.
func TestParallelOverheadBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector intercepts every atomic op; the 1.2x bound only holds in normal builds")
	}
	n := 1 << 18
	if testing.Short() {
		n = 1 << 16
	}
	events := benchStream(n)

	for _, chunkSize := range []uint64{benchChunk, 0} {
		reference := func() time.Duration {
			start := time.Now()
			refChunk := chunkSize
			if refChunk == 0 {
				refChunk = math.MaxUint64 // one grammar: the whole stream
			}
			cb := newRefBuilder(nil, nil, refChunk)
			for _, e := range events {
				cb.Add(e)
			}
			cb.Finish(uint64(n))
			return time.Since(start)
		}
		parallel := func() time.Duration {
			start := time.Now()
			pb := New(nil, nil, BuildOptions{ChunkSize: chunkSize, Workers: 1})
			for _, e := range events {
				pb.Add(e)
			}
			pb.Finish(uint64(n))
			return time.Since(start)
		}

		// Best of five per side, the repetitions interleaved so that load
		// from a neighbouring process hits both sides alike.
		seq, par := time.Duration(1<<63-1), time.Duration(1<<63-1)
		for rep := 0; rep < 5; rep++ {
			seq = min(seq, reference())
			par = min(par, parallel())
		}

		const grace = 20 * time.Millisecond
		limit := seq + seq/5 + grace // 1.2x + jitter grace
		t.Logf("chunk %d: reference %v, builder(w=1) %v, limit %v", chunkSize, seq, par, limit)
		if par > limit {
			t.Errorf("chunk %d: builder at Workers=1 took %v, over the %v bound (reference %v)", chunkSize, par, limit, seq)
		}
	}
}

// TestInstrumentedOverheadBound guards the observability layer's core
// promise: enabling full BuildMetrics may cost at most 5% wall time over
// the uninstrumented pipeline at Workers=1 (plus the same absolute grace
// as the bound above, so sub-millisecond jitter cannot fail the build).
// The instrumented path adds only atomic counter increments and two
// time.Now calls per chunk; a bigger gap means instrumentation leaked
// into the hot path. The bound got harder to meet, not easier, when the
// grammar gained its arena layout: the uninstrumented baseline no longer
// pays allocator or map overhead that once hid instrumentation cost, and
// the grammar skips its per-event gauge update entirely when no hooks
// are installed — so the 5% now measures pure metric-update cost against
// a leaner denominator.
func TestInstrumentedOverheadBound(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector intercepts every atomic op; the 5% bound only holds in normal builds")
	}
	n := 1 << 18
	if testing.Short() {
		n = 1 << 16
	}
	events := benchStream(n)

	build := func(met *BuildMetrics) time.Duration {
		start := time.Now()
		pb := New(nil, nil, BuildOptions{ChunkSize: benchChunk, Workers: 1, Metrics: met})
		for _, e := range events {
			pb.Add(e)
		}
		pb.Finish(uint64(n))
		return time.Since(start)
	}

	// Best of five per side, the repetitions interleaved so that load
	// from a neighbouring process hits both sides alike.
	met := NewBuildMetrics(obsv.NewRegistry())
	plain, instrumented := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for rep := 0; rep < 5; rep++ {
		plain = min(plain, build(nil))
		instrumented = min(instrumented, build(met))
	}

	const grace = 20 * time.Millisecond
	limit := plain + plain/20 + grace // 1.05x + jitter grace
	t.Logf("uninstrumented %v, instrumented %v, limit %v", plain, instrumented, limit)
	if instrumented > limit {
		t.Errorf("instrumented pipeline took %v, over the %v bound (uninstrumented %v)", instrumented, limit, plain)
	}
}
