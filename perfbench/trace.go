package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory and are written out when the run ends. A nil
// *tracer records nothing, so untraced ops pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Spans of one op share Op; Parent is the ID of
// the enclosing span (-1 for an op's root, named "op"). A shadow span
// re-runs, after the op, part of the work its parent did inside it, to
// split the parent's time where the parent is one opaque call; it counts
// against its parent's self time but not toward the op's wall time.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Shadow bool          `json:"shadow,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// N is the work the span did: events processed, windows counted.
	N uint64 `json:"n,omitempty"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) open(op, parent int, name string, shadow bool) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Shadow: shadow, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// begin opens a span; end closes it.
func (t *tracer) begin(op, parent int, name string) int { return t.open(op, parent, name, false) }

// shadow opens a shadow span (see span).
func (t *tracer) shadow(op, parent int, name string) int { return t.open(op, parent, name, true) }

func (t *tracer) end(id int) { t.endN(id, 0) }

// endN closes a span that did n units of work.
func (t *tracer) endN(id int, n uint64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].N = n
	t.mu.Unlock()
}

// dump writes every span as one JSON line.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceSummary aggregates spans by name and by layer. A layer is the
// span name up to its first dot; op roots belong to "bench", whose self
// time is the benchmark's own glue between layer calls.
type traceSummary struct {
	ops       int
	opWall    time.Duration            // summed root durations
	childWall time.Duration            // summed durations of the roots' direct non-shadow children
	layerSelf map[string]time.Duration // self time per layer
	total     map[string]time.Duration // summed duration per span name
	work      map[string]uint64        // summed N per span name
	perOp     map[string][]float64     // per-op summed duration (ms) per span name
	perSpan   map[string][]float64     // each span's duration (ms) per name
	selfPerOp map[string][]float64     // per-op summed self time (ms) per span name
}

func (t *tracer) summarize() traceSummary {
	s := traceSummary{
		layerSelf: map[string]time.Duration{},
		total:     map[string]time.Duration{},
		work:      map[string]uint64{},
		perOp:     map[string][]float64{},
		perSpan:   map[string][]float64{},
		selfPerOp: map[string][]float64{},
	}
	// A parent's shadow children split whatever of its time its real
	// children leave; when they overrun it (their calls ran in turn where
	// the parent's ran in parallel), they are scaled down to fit.
	realSum := make([]time.Duration, len(t.spans))
	shadowSum := make([]time.Duration, len(t.spans))
	for _, sp := range t.spans {
		switch {
		case sp.Parent < 0:
		case sp.Shadow:
			shadowSum[sp.Parent] += sp.End - sp.Start
		default:
			realSum[sp.Parent] += sp.End - sp.Start
		}
	}
	scale := func(parent int) float64 {
		p := t.spans[parent]
		room := p.End - p.Start - realSum[parent]
		if shadowSum[parent] <= room {
			return 1
		}
		return max(float64(room), 0) / float64(shadowSum[parent])
	}
	childSum := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		childSum[i] = realSum[i]
		if shadowSum[i] > 0 {
			childSum[i] += time.Duration(float64(shadowSum[i]) * scale(i))
		}
	}
	type key struct {
		op   int
		name string
	}
	opSum := map[key]time.Duration{}
	opSelf := map[key]time.Duration{}
	var order []key
	for _, sp := range t.spans {
		d := sp.End - sp.Start
		self := max(d-childSum[sp.ID], 0)
		if sp.Shadow {
			self = time.Duration(float64(self) * scale(sp.Parent))
		}
		name := sp.Name
		if sp.Parent < 0 {
			s.ops++
			s.opWall += d
			s.layerSelf["bench"] += self
			continue
		}
		if !sp.Shadow && t.spans[sp.Parent].Parent < 0 {
			s.childWall += d
		}
		layer, _, _ := strings.Cut(name, ".")
		s.layerSelf[layer] += self
		s.total[name] += d
		s.work[name] += sp.N
		s.perSpan[name] = append(s.perSpan[name], ms(d))
		k := key{sp.Op, name}
		if _, ok := opSum[k]; !ok {
			order = append(order, k)
		}
		opSum[k] += d
		opSelf[k] += self
	}
	for _, k := range order {
		s.perOp[k.name] = append(s.perOp[k.name], ms(opSum[k]))
		s.selfPerOp[k.name] = append(s.selfPerOp[k.name], ms(opSelf[k]))
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layerOrder lists the per-layer share metrics.
var layerOrder = []string{"wlc", "interp", "wpp", "store", "engine", "hotpath", "serve", "bench"}

// perLayerNames is every per-layer metric with its unit. Every workload
// reports all of them; a layer a workload bypasses reads 0.
var perLayerNames = []struct{ name, unit string }{
	{"wlc.compile_ms", "ms"},
	{"interp.run_s", "s"},
	{"interp.mev_per_s", "Mev/s"},
	{"interp.trace_overhead_x", "x"},
	{"wpp.build_s", "s"},
	{"wpp.build_mev_per_s", "Mev/s"},
	{"wpp.chunked_build_s", "s"},
	{"wpp.encode_ms", "ms"},
	{"wpp.encoded_bytes", "bytes"},
	{"wpp.chunks_materialized", "count"},
	{"sequitur.rules", "count"},
	{"store.put_ms", "ms"},
	{"store.objects_written", "count"},
	{"store.objects_reused", "count"},
	{"store.open_view_ms", "ms"},
	{"engine.analysis_ms", "ms"},
	{"engine.count_windows_ms", "ms"},
	{"engine.windows_distinct", "count"},
	{"hotpath.find_ms", "ms"},
	{"hotpath.find_self_ms", "ms"},
	{"hotpath.profile_ms", "ms"},
	{"hotpath.subpaths", "count"},
	{"hotpath.scan_ms", "ms"},
	{"hotpath.vs_scan_x", "x"},
	{"serve.frame_ms", "ms"},
	{"serve.seal_ms", "ms"},
	{"serve.hot_ms", "ms"},
	{"serve.refused", "count"},
	{"go.alloc_mb_per_mev", "MB/Mev"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_fraction", "fraction"},
	{"bench.trace_overhead_x", "x"},
	{"bench.span_vs_untraced_x", "x"},
	{"bench.ops_traced", "count"},
	{"bench.ref_kernel_ms", "ms"},
}

// layerMetrics derives the per-layer metrics of a traced run from its
// spans and the workload's own counters.
func layerMetrics(r *report, s traceSummary) map[string]metric {
	v := map[string]float64{
		"wlc.compile_ms":          median(s.perOp["wlc.compile"]),
		"interp.run_s":            s.total["interp.run"].Seconds(),
		"interp.mev_per_s":        rate(s.work["interp.run"], s.total["interp.run"]),
		"wpp.build_s":             s.total["wpp.build"].Seconds(),
		"wpp.build_mev_per_s":     rate(s.work["wpp.build"], s.total["wpp.build"]),
		"wpp.encode_ms":           median(s.perOp["wpp.encode"]),
		"store.put_ms":            median(s.perOp["store.put"]),
		"store.open_view_ms":      median(s.perOp["store.open_view"]),
		"engine.analysis_ms":      median(s.perOp["engine.analysis"]),
		"engine.count_windows_ms": median(s.perOp["engine.count_windows"]),
		"hotpath.find_ms":         median(s.perOp["hotpath.find"]),
		"hotpath.find_self_ms":    median(s.selfPerOp["hotpath.find"]),
		"hotpath.profile_ms":      median(s.perOp["hotpath.profile"]),
		"serve.frame_ms":          median(s.perSpan["serve.frame"]),
		"serve.seal_ms":           median(s.perSpan["serve.seal"]),
		"serve.hot_ms":            median(s.perSpan["serve.hot"]),
		"bench.ops_traced":        float64(s.ops),
		"bench.ref_kernel_ms":     median(durationsMS(r.refs)),
	}
	if r.events > 0 {
		v["go.alloc_mb_per_mev"] = float64(r.mem.allocBytes) / float64(r.events)
	}
	v["go.gc_cycles"] = float64(r.mem.gcCycles)
	v["go.gc_cpu_fraction"] = r.mem.gcCPU
	if r.untracedLat > 0 {
		v["bench.trace_overhead_x"] = r.tracedLat.Seconds() / r.untracedLat.Seconds()
		v["bench.span_vs_untraced_x"] = s.childWall.Seconds() / r.untracedLat.Seconds()
	}
	for _, l := range layerOrder {
		if s.opWall > 0 {
			v[l+".share_pct"] = 100 * s.layerSelf[l].Seconds() / s.opWall.Seconds()
		}
	}
	for n, m := range r.layers {
		v[n] = m.Value
	}
	out := map[string]metric{}
	for _, n := range perLayerNames {
		out[n.name] = metric{v[n.name], n.unit}
	}
	for _, l := range layerOrder {
		out[l+".share_pct"] = metric{v[l+".share_pct"], "%"}
	}
	return out
}

// rate is n events over d in millions per second.
func rate(n uint64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / 1e6 / d.Seconds()
}
