package obsv

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Errorf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Errorf("nil gauge value = %d", g.Value())
	}
	var f *FloatGauge
	f.Set(1.5)
	if f.Value() != 0 {
		t.Errorf("nil float gauge value = %v", f.Value())
	}
	var h *Histogram
	h.Observe(time.Millisecond)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("nil histogram count=%d sum=%v", h.Count(), h.Sum())
	}
}

func TestNilRegistryDisablesEverything(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Gauge("b").Set(1)
	r.FloatGauge("c").Set(1)
	r.Histogram("d", nil).Observe(time.Second)
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	r.PublishExpvar("obsv_test_nil")
	stop := r.StartProgress(io.Discard, time.Millisecond)
	stop()
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("counter = %d, want 10", c.Value())
	}
	if r.Counter("events") != c {
		t.Error("re-registering a counter returned a different object")
	}
	g := r.Gauge("depth")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Errorf("gauge = %d, want 3", g.Value())
	}
	f := r.FloatGauge("ratio")
	f.Set(42.5)
	if f.Value() != 42.5 {
		t.Errorf("float gauge = %v, want 42.5", f.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Error("registering x as gauge after counter did not panic")
		}
	}()
	r.Gauge("x")
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(500 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (inclusive bound)
	h.Observe(2 * time.Millisecond)   // bucket 1
	h.Observe(time.Second)            // +Inf
	s := h.snapshot()
	want := []uint64{2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], w)
		}
	}
	if s.Count != 4 {
		t.Errorf("count = %d, want 4", s.Count)
	}
	wantSum := (500*time.Microsecond + 3*time.Millisecond + time.Second).Seconds()
	if s.Sum != wantSum {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
}

func TestSnapshotCoversAllKinds(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(2)
	r.Gauge("g").Set(-4)
	r.FloatGauge("f").Set(0.5)
	r.Histogram("h", nil).Observe(time.Millisecond)
	s := r.Snapshot()
	if s.Counters["c"] != 2 || s.Gauges["g"] != -4 || s.Floats["f"] != 0.5 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.Histograms["h"].Count != 1 {
		t.Errorf("histogram snapshot = %+v", s.Histograms["h"])
	}
}

func TestConcurrentRegistrationAndUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Set(int64(j))
				r.Histogram("h", nil).Observe(time.Microsecond)
			}
		}()
	}
	// Concurrent scrapes must not block or race with the writers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				r.Snapshot()
				r.WritePrometheus(io.Discard)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("shared counter = %d, want 8000", got)
	}
}

func TestProgressReporter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("done")
	r.Gauge("queue").Set(3)
	var mu sync.Mutex
	var buf bytes.Buffer
	w := lockedWriter{mu: &mu, w: &buf}
	stop := r.StartProgress(w, 10*time.Millisecond)
	c.Add(5)
	time.Sleep(35 * time.Millisecond)
	stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "done=5") || !strings.Contains(out, "queue=3") {
		t.Errorf("progress output missing metrics:\n%s", out)
	}
	if !strings.HasPrefix(out, "progress:") {
		t.Errorf("progress output = %q", out)
	}
}

// lockedWriter serializes writes so the test can read the buffer safely.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestCountingWriter(t *testing.T) {
	r := NewRegistry()
	out := r.Counter("bytes_out")
	var buf bytes.Buffer
	cw := CountingWriter{W: &buf, C: out}
	io.WriteString(cw, "hello")
	if out.Value() != 5 {
		t.Errorf("bytes_out = %d, want 5", out.Value())
	}
	if buf.String() != "hello" {
		t.Fatalf("wrote %q", buf.String())
	}
}
