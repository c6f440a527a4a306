package interp

// Differential tests holding Machine to refMachine (refinterp_test.go):
// on the same program, arguments and Config, both must return the same
// result and error text, end with the same Stats, write the same output
// and make the same sequence of Sink, AddBatch and EdgeSink calls.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cfg"
	"repro/internal/trace"
	"repro/internal/wlc"
)

// call is one call a run makes into its environment: a trace event, a
// batch boundary (batch > 0, before the batch's events) or an edge.
type call struct {
	ev    trace.Event
	batch int
	edge  bool
	fn    uint32
	from  cfg.BlockID
	succ  int
}

// recorder is a plain Sink that also records EdgeSink calls, so their
// interleaving with events is compared too.
type recorder struct{ calls []call }

func (r *recorder) Add(e trace.Event) { r.calls = append(r.calls, call{ev: e}) }

func (r *recorder) edge(fn uint32, from cfg.BlockID, succ int) {
	r.calls = append(r.calls, call{edge: true, fn: fn, from: from, succ: succ})
}

// batchRecorder is the BatchSink variant of recorder.
type batchRecorder struct{ recorder }

func (r *batchRecorder) AddBatch(es []trace.Event) {
	r.calls = append(r.calls, call{batch: len(es)})
	for _, e := range es {
		r.Add(e)
	}
}

// observation is everything one run shows its environment.
type observation struct {
	result int64
	err    string
	stats  Stats
	calls  []call
	stdout string
}

// parityConfig is one way to run a program.
type parityConfig struct {
	mode      Mode
	batch     bool
	edges     bool
	maxInstrs uint64
}

func (c parityConfig) String() string {
	return fmt.Sprintf("mode %d batch %v edges %v limit %d", c.mode, c.batch, c.edges, c.maxInstrs)
}

// parityConfigs is every mode, with a plain or batch sink when tracing,
// with and without an EdgeSink, under each instruction limit (0 for
// none).
func parityConfigs(limits []uint64) []parityConfig {
	var cs []parityConfig
	for _, mode := range []Mode{NoTrace, BlockTrace, PathTrace} {
		for _, batch := range []bool{false, true} {
			if batch && mode == NoTrace {
				continue
			}
			for _, edges := range []bool{false, true} {
				for _, limit := range limits {
					cs = append(cs, parityConfig{mode, batch, edges, limit})
				}
			}
		}
	}
	return cs
}

// observe runs main(args...) under c on the production machine, or on
// the reference when ref is set.
func observe(t *testing.T, p *wlc.Program, c parityConfig, ref bool, args ...int64) observation {
	t.Helper()
	var rec *recorder
	var sink trace.Sink
	if c.batch {
		br := &batchRecorder{}
		rec, sink = &br.recorder, br
	} else {
		rec = &recorder{}
		sink = rec
	}
	var out bytes.Buffer
	config := Config{Stdout: &out, MaxInstrs: c.maxInstrs}
	if c.mode != NoTrace {
		config.Mode, config.Sink = c.mode, sink
	}
	if c.edges {
		config.EdgeSink = rec.edge
	}
	var o observation
	var err error
	if ref {
		m, nerr := newRef(p, config)
		if nerr != nil {
			t.Fatalf("%v: reference: %v", c, nerr)
		}
		o.result, err = m.Run("main", args...)
		o.stats = m.stats
	} else {
		m, nerr := New(p, config)
		if nerr != nil {
			t.Fatalf("%v: %v", c, nerr)
		}
		o.result, err = m.Run("main", args...)
		o.stats = m.Stats()
	}
	if err != nil {
		o.err = err.Error()
	}
	o.calls, o.stdout = rec.calls, out.String()
	return o
}

// checkParity runs src under every parity config on both machines.
func checkParity(t *testing.T, src string, limits []uint64, args ...int64) {
	t.Helper()
	p, err := wlc.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	for _, c := range parityConfigs(limits) {
		want := observe(t, p, c, true, args...)
		got := observe(t, p, c, false, args...)
		if got.result != want.result || got.err != want.err || got.stdout != want.stdout {
			t.Fatalf("%v: got (%d, %q, %q), reference (%d, %q, %q)\n%s",
				c, got.result, got.err, got.stdout, want.result, want.err, want.stdout, src)
		}
		if !reflect.DeepEqual(got.stats, want.stats) {
			t.Fatalf("%v: stats %+v, reference %+v\n%s", c, got.stats, want.stats, src)
		}
		if !reflect.DeepEqual(got.calls, want.calls) {
			t.Fatalf("%v: %d sink/edge calls diverge from the reference's %d\n%s", c, len(got.calls), len(want.calls), src)
		}
	}
}

// FuzzInterpParity holds Machine to the reference on random
// terminating programs (progGen), under every mode, sink kind and
// EdgeSink setting, under a small instruction limit and a large one.
// progGen's nested loops and calls can run for tens of millions of
// instructions; the large limit bounds the recorded calls, and
// TestInterpParity covers running with no limit.
func FuzzInterpParity(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 99, 106} {
		f.Add(seed, int64(17), uint16(300))
	}
	f.Fuzz(func(t *testing.T, seed, arg int64, limit uint16) {
		g := &progGen{rng: rand.New(rand.NewSource(seed))}
		checkParity(t, g.gen(), []uint64{1 + uint64(limit), 1 << 18}, arg)
	})
}

// fusedFaultCases fault in the second half of an op decode fused: a
// constant divisor or remainder of zero, arithmetic on an array after a
// fused constant, and a fused Load out of range, after a constant index
// or before a Mov. Each names the fusion
// it must contain, so a change to the lowering cannot quietly turn a
// case into an unfused one.
var fusedFaultCases = []struct {
	src  string
	want fusion
}{
	{"func main(n) { var x = 1; x = n / 0; return x; }", fuseConst | fuseMov},
	{"func main(n) { return n / 0; }", fuseConst},
	{"func main(n) { return n % 0; }", fuseConst},
	{"func main(n) { var x = 1; x = n % 0; return x; }", fuseConst | fuseMov},
	{"func main(n) { var a = array(2); var x = 1; x = a * 3; return x; }", fuseConst | fuseMov},
	{"func main(n) { var a = array(2); return 3 - a; }", fuseConst},
	{"func main(n) { var a = array(2); var x = 1; x = a[n]; return x; }", fuseMov},
	{"func main(n) { var a = array(2); return a[5]; }", fuseConst},
	{"func main(n) { var a = array(2); var x = 1; while x < 5 { x = a[x]; x = x + 2; } return x; }", fuseMov},
}

// TestInterpParity holds Machine to the reference on the fault tables,
// which progGen's programs never reach, and on programs with recursion,
// printing and more events than one emission batch.
func TestInterpParity(t *testing.T) {
	for _, c := range runtimeErrorCases {
		checkParity(t, c.src, []uint64{0, 120})
	}
	for _, c := range fusedFaultCases {
		p, err := wlc.Compile(c.src)
		if err != nil {
			t.Fatalf("compile: %v\n%s", err, c.src)
		}
		fused := false
		for _, f := range p.Funcs {
			for _, b := range decode(f, nil).blocks {
				for _, o := range b.code {
					fused = fused || o.fuse&c.want == c.want
				}
			}
		}
		if !fused {
			t.Fatalf("no op with fusion %b in\n%s", c.want, c.src)
		}
		if o := observe(t, p, parityConfig{mode: PathTrace}, false, 7); o.err == "" {
			t.Fatalf("ran to completion, want a fault in\n%s", c.src)
		}
		checkParity(t, c.src, []uint64{0, 120}, 7)
	}
	for _, c := range instrLimitCases {
		checkParity(t, c.src, []uint64{c.maxInstrs})
	}
	checkParity(t, batchTestSrc, []uint64{0, 50000}, 600)
	checkParity(t, crossValidationSrc, []uint64{0, 500}, 30)
	checkParity(t, fibSrc, []uint64{0, 4000}, 15)
	checkParity(t, `
func show(a) { print a, len(a); return a[0]; }
func main(n) { var a = array(2); a[0] = n; print n, n * 2; return show(a); }`, []uint64{0, 10}, 7)
}
