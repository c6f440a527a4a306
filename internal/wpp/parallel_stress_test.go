package wpp

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/trace"
)

// TestParallelStress hammers the worker pool: many builders running
// concurrently, tiny chunks (so seals are frequent and the jobs channel
// stays saturated), randomized pacing between Adds so seal timing varies
// relative to worker progress. Every artifact is checked against the
// per-event reference (refBuilder). Run under -race this exercises the
// pool's happens-before edges; -short trims the trial count.
func TestParallelStress(t *testing.T) {
	trials := 12
	streamLen := 20000
	if testing.Short() {
		trials = 4
		streamLen = 4000
	}
	var wg sync.WaitGroup
	errs := make([]string, trials)
	for trial := 0; trial < trials; trial++ {
		wg.Add(1)
		go func(trial int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			n := streamLen/2 + rng.Intn(streamLen/2)
			events := make([]trace.Event, n)
			for i := range events {
				// Repetitive with noise, so grammars have real structure.
				if rng.Intn(4) > 0 && i >= 8 {
					events[i] = events[i-8]
				} else {
					events[i] = trace.MakeEvent(uint32(rng.Intn(3)), uint64(rng.Intn(50)))
				}
			}
			chunkSize := uint64(1 + rng.Intn(64)) // tiny: hundreds to thousands of seals
			workers := 1 + rng.Intn(8)

			pb := NewParallelChunkedBuilder(funcNames(events), nil, chunkSize, ParallelOptions{Workers: workers})
			for i, e := range events {
				pb.Add(e)
				// Randomize seal timing relative to worker progress: yield
				// at unpredictable points so the collector, workers, and
				// the Add front-end interleave differently every trial.
				if rng.Intn(256) == 0 {
					runtime.Gosched()
				}
				_ = i
			}
			par := pb.Finish(uint64(n))

			sb := newRefBuilder(funcNames(events), nil, chunkSize)
			for _, e := range events {
				sb.Add(e)
			}
			seq := sb.Finish(uint64(n))

			if !reflect.DeepEqual(par.Chunks, seq.Chunks) || par.Stats() != seq.Stats() {
				errs[trial] = "parallel artifact diverged from the reference"
				return
			}
			if err := par.VerifyParallel(workers); err != nil {
				errs[trial] = err.Error()
			}
		}(trial)
	}
	wg.Wait()
	for trial, e := range errs {
		if e != "" {
			t.Errorf("trial %d: %s", trial, e)
		}
	}
}

// TestParallelBackpressure checks the pipeline completes (no deadlock)
// when the producer far outruns slow workers, and that the jobs channel
// bound keeps the artifact correct with a single worker draining
// thousands of queued seals.
func TestParallelBackpressure(t *testing.T) {
	n := 50000
	if testing.Short() {
		n = 10000
	}
	b := NewParallelChunkedBuilder([]string{"f"}, nil, 4, ParallelOptions{Workers: 1})
	for i := 0; i < n; i++ {
		b.Add(trace.MakeEvent(0, uint64(i%7)))
	}
	c := b.Finish(uint64(n))
	if c.Events != uint64(n) || len(c.Chunks) != (n+3)/4 {
		t.Fatalf("got %d events in %d chunks", c.Events, len(c.Chunks))
	}
	if err := c.Verify(); err != nil {
		t.Fatal(err)
	}
}
