package wpp

// Race-detector stress: concurrent /metrics scrapes (WritePrometheus and
// Snapshot) while the parallel pipeline is building. Run with -race this
// pins the core obsv claim — every metric is readable at any moment from
// any goroutine without locks on the hot path — and checks the final
// totals are exact, not merely race-free.

import (
	"io"
	"sync"
	"testing"

	"repro/internal/obsv"
)

func TestMetricsScrapeDuringParallelBuild(t *testing.T) {
	reg := obsv.NewRegistry()
	met := NewBuildMetrics(reg)
	names := []string{"f0", "f1", "f2", "f3"}
	b := New(names, nil, BuildOptions{ChunkSize: 256, Workers: 4, Metrics: met})

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := reg.WritePrometheus(io.Discard); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				snap := reg.Snapshot()
				if snap.Counters["wpp_events_ingested_total"] > events {
					t.Errorf("scraped %d events ingested, stream has only %d",
						snap.Counters["wpp_events_ingested_total"], events)
					return
				}
			}
		}()
	}

	stream := benchStream(events)
	for _, e := range stream {
		b.Add(e)
	}
	c := b.Finish(uint64(events)).(*ChunkedWPP)
	close(stop)
	scrapers.Wait()

	if err := c.Verify(1); err != nil {
		t.Fatalf("artifact fails verification under concurrent scraping: %v", err)
	}
	if got := met.EventsIngested.Value(); got != events {
		t.Errorf("events ingested = %d, want %d", got, events)
	}
	if got := met.ChunksSealed.Value(); got != uint64(len(c.Chunks)) {
		t.Errorf("chunks sealed = %d, want %d", got, len(c.Chunks))
	}
	if got := met.Grammar.Terminals.Value(); got != events {
		t.Errorf("grammar terminals = %d, want %d (every event reaches a grammar)", got, events)
	}
	rep := b.Report()
	if rep.Events != events || rep.Chunks != len(c.Chunks) {
		t.Errorf("report events/chunks = %d/%d, want %d/%d", rep.Events, rep.Chunks, events, len(c.Chunks))
	}
	if len(rep.WorkerBusy) != rep.Workers || rep.Workers == 0 {
		t.Errorf("report has %d busy fractions for %d workers", len(rep.WorkerBusy), rep.Workers)
	}
}

const events = 50_000
