package serve

import (
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obsv"
)

// TestSoakSteadyStateMemory runs waves of churning sessions — randomized
// batch sizes, a kill-and-retry cohort that abandons sessions mid-stream
// and reopens them — and asserts from the obsv snapshot that the daemon
// reaches steady-state memory instead of accreting grammars, builders, or
// session records. Skipped under -short.
func TestSoakSteadyStateMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}

	reg := obsv.NewRegistry()
	met := NewMetrics(reg)
	srv, c := newTestServer(t, Config{
		MaxSessions: 64,
		Metrics:     met,
	})
	cap := capture(t, "matrix")

	const (
		waves       = 12
		perWave     = 6
		warmupWaves = 4
	)
	// heapAfter forces a GC, runs a sweep (which samples the heap gauge),
	// and reads the gauge back from the metrics snapshot — the same
	// number an operator would scrape.
	heapAfter := func() int64 {
		runtime.GC()
		srv.Sweep()
		return reg.Snapshot().Gauges["serve_heap_alloc_bytes"]
	}

	var warmupHeap int64
	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < perWave; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				wrng := rand.New(rand.NewSource(seed))
				// Kill-and-retry: a third of the cohort abandons its first
				// attempt partway and reopens fresh, like a crashed tracer.
				attempts := 1
				if wrng.Intn(3) == 0 {
					attempts = 2
				}
				for a := 0; a < attempts; a++ {
					info, err := c.Open(OpenRequest{Workload: "matrix"})
					if err != nil {
						if IsStatus(err, http.StatusServiceUnavailable) {
							time.Sleep(time.Millisecond)
							a--
							continue
						}
						t.Errorf("open: %v", err)
						return
					}
					total := len(cap.Events)
					kill := a < attempts-1
					if kill {
						total = wrng.Intn(total)
					}
					batch := 256 + wrng.Intn(8192) // randomized frame size
					for off := 0; off < total; off += batch {
						end := min(off+batch, total)
						if err := ingestRetry(c, info.ID, cap.Events[off:end]); err != nil {
							t.Errorf("ingest: %v", err)
							return
						}
					}
					if kill {
						// Crash: walk away without sealing. DELETE stands in
						// for the idle janitor so the wave stays bounded.
						if err := c.Evict(info.ID); err != nil {
							t.Errorf("evict killed session: %v", err)
						}
						continue
					}
					if _, err := c.Seal(info.ID, cap.Instructions); err != nil {
						t.Errorf("seal: %v", err)
						return
					}
					if err := c.Evict(info.ID); err != nil {
						t.Errorf("evict sealed session: %v", err)
					}
				}
			}(int64(wave*perWave + i))
		}
		wg.Wait()
		if wave == warmupWaves-1 {
			warmupHeap = heapAfter()
		}
	}

	finalHeap := heapAfter()
	if warmupHeap == 0 {
		t.Fatal("warmup heap sample was zero; gauge not wired")
	}
	// Steady state: after 8 further waves of full churn, the drained
	// daemon's heap may not have grown past 2x the warmed-up baseline.
	// A leak of any per-session structure (grammar arena, builder, costs
	// map, session record) compounds per wave and blows well past that.
	if finalHeap > 2*warmupHeap {
		t.Errorf("heap grew %d -> %d bytes across churn waves; daemon is accreting per-session state",
			warmupHeap, finalHeap)
	}

	if n := srv.SessionCount(); n != 0 {
		t.Errorf("%d sessions resident after drain", n)
	}
	if g := met.SessionsOpen.Value(); g != 0 {
		t.Errorf("SessionsOpen gauge = %d after drain", g)
	}
	// Every opened session — sealed or killed — ends with exactly one
	// eviction; a mismatch means a session record leaked or was evicted
	// twice.
	s := reg.Snapshot()
	if s.Counters["serve_sessions_opened_total"] != s.Counters["serve_sessions_evicted_total"] {
		t.Errorf("session accounting leak: opened %d, sealed %d, evicted %d",
			s.Counters["serve_sessions_opened_total"],
			s.Counters["serve_sessions_sealed_total"],
			s.Counters["serve_sessions_evicted_total"])
	}
}
