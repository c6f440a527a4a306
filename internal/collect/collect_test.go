package collect

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/bl"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
	"repro/internal/wpp"
)

const loop = `
func step(x) { if x % 2 == 0 { return x / 2; } return 3 * x + 1; }
func main(n) {
    var s = 0;
    var i = 1;
    while i < n { s = s + step(i); i = i + 1; }
    return s;
}`

func compile(t *testing.T, src string) *wlc.Program {
	t.Helper()
	prog, err := wlc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestRunBuildsArtifact: the factory sees the program's function names
// and numberings, and the result matches an untraced run.
func TestRunBuildsArtifact(t *testing.T) {
	prog := compile(t, loop)
	for _, opts := range []wpp.BuildOptions{{}, {ChunkSize: 16, Workers: 2}} {
		var gotNames []string
		r, err := Run(prog, []int64{50}, interp.Config{}, func(names []string, nums []*bl.Numbering) wpp.Builder {
			gotNames = names
			return wpp.New(names, nums, opts)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotNames, []string{prog.Funcs[0].Name, prog.Funcs[1].Name}) {
			t.Fatalf("factory saw names %v", gotNames)
		}
		m, err := interp.New(prog, interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.Run("main", 50)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != want || r.Artifact.NumEvents() != r.Stats.Events || r.Stats.Events == 0 {
			t.Fatalf("%+v: value %d (want %d), %d events (stats %d)", opts, r.Value, want, r.Artifact.NumEvents(), r.Stats.Events)
		}
		if r.Report == nil || len(r.Numberings) != len(prog.Funcs) {
			t.Fatalf("%+v: report %v, %d numberings", opts, r.Report, len(r.Numberings))
		}
		if err := r.Artifact.Verify(1); err != nil {
			t.Fatal(err)
		}
	}
}

// finishSpy records whether its builder was sealed.
type finishSpy struct {
	wpp.Builder
	finished bool
}

func (s *finishSpy) Finish(instructions uint64) wpp.Artifact {
	s.finished = true
	return s.Builder.Finish(instructions)
}

// TestRunDrainsOnError: a run that fails, on an interpreter fault or a
// MaxInstrs stop, still finishes the builder, monolithic or chunked, and
// every goroutine the build started has exited afterwards.
func TestRunDrainsOnError(t *testing.T) {
	runs := []struct {
		name string
		src  string
		cfg  interp.Config
		want string // in the run's error
	}{
		{"fault", `func main() {
    var i = 0;
    var z = 0;
    while i < 100000 { i = i + 1; if i == 3000 { z = 1 / (i - i); } }
    return z;
}`, interp.Config{}, "division by zero"},
		{"max-instrs", `func main() { var i = 0; while i >= 0 { i = i + 1; } return 0; }`, interp.Config{MaxInstrs: 5000}, "limit"},
	}
	for _, r := range runs {
		prog := compile(t, r.src)
		for _, opts := range []wpp.BuildOptions{{}, {ChunkSize: 16, Workers: 4}} {
			base := runtime.NumGoroutine()
			var spy *finishSpy
			_, err := Run(prog, nil, r.cfg, func(names []string, nums []*bl.Numbering) wpp.Builder {
				spy = &finishSpy{Builder: wpp.New(names, nums, opts)}
				return spy
			})
			if err == nil || !strings.Contains(err.Error(), r.want) {
				t.Fatalf("%s %+v: run error %v, want one mentioning %q", r.name, opts, err, r.want)
			}
			if !spy.finished || spy.Events() == 0 {
				t.Fatalf("%s %+v: failed run left the builder unfinished (finished %v, %d events)", r.name, opts, spy.finished, spy.Events())
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					t.Fatalf("%s %+v: %d goroutines after the failed run, %d before", r.name, opts, runtime.NumGoroutine(), base)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestCaptureAgreesWithRun: on every bundled workload, the two entry
// points run the same machine. Capture's events are the Walk of Run's
// artifact, and the value, statistics and numberings match, for a
// monolithic and a chunked build.
func TestCaptureAgreesWithRun(t *testing.T) {
	for _, w := range workloads.All {
		prog := compile(t, w.Source)
		args := []int64{w.Small}
		c, err := Capture(prog, args, interp.Config{}, interp.PathTrace)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !reflect.DeepEqual(c.Names, prog.FuncNames()) || uint64(len(c.Events)) != c.Stats.Events || len(c.Events) == 0 {
			t.Fatalf("%s: names %v, %d events (stats %d)", w.Name, c.Names, len(c.Events), c.Stats.Events)
		}
		for _, opts := range []wpp.BuildOptions{{}, {ChunkSize: 64, Workers: 2}} {
			r, err := Run(prog, args, interp.Config{}, Build(opts))
			if err != nil {
				t.Fatalf("%s %+v: %v", w.Name, opts, err)
			}
			var walked []trace.Event
			r.Artifact.Walk(func(e trace.Event) bool { walked = append(walked, e); return true })
			if !reflect.DeepEqual(walked, c.Events) {
				t.Fatalf("%s %+v: artifact walks %d events, capture holds %d", w.Name, opts, len(walked), len(c.Events))
			}
			if r.Value != c.Value || !reflect.DeepEqual(r.Stats, c.Stats) {
				t.Fatalf("%s %+v: run gave %d %+v, capture %d %+v", w.Name, opts, r.Value, r.Stats, c.Value, c.Stats)
			}
			if len(r.Numberings) != len(c.Numberings) {
				t.Fatalf("%s %+v: %d numberings, capture %d", w.Name, opts, len(r.Numberings), len(c.Numberings))
			}
			for i, n := range r.Numberings {
				cn := c.Numberings[i]
				if n.NumPaths != cn.NumPaths || !reflect.DeepEqual(n.EdgeVal, cn.EdgeVal) || !reflect.DeepEqual(n.IsBack, cn.IsBack) {
					t.Fatalf("%s %+v: function %d numbered differently", w.Name, opts, i)
				}
			}
		}
	}
}

// TestCaptureBlockTrace: a block-mode capture has no numberings and
// emits more events than the path-mode run of the same program.
func TestCaptureBlockTrace(t *testing.T) {
	prog := compile(t, loop)
	block, err := Capture(prog, []int64{50}, interp.Config{}, interp.BlockTrace)
	if err != nil {
		t.Fatal(err)
	}
	path, err := Capture(prog, []int64{50}, interp.Config{}, interp.PathTrace)
	if err != nil {
		t.Fatal(err)
	}
	if block.Numberings != nil || block.Value != path.Value || len(block.Events) <= len(path.Events) {
		t.Fatalf("block capture: %d numberings, value %d (path %d), %d events (path %d)",
			len(block.Numberings), block.Value, path.Value, len(block.Events), len(path.Events))
	}
}

// TestCaptureReportsRunError: a run that exceeds its budget is an
// error, not a truncated capture.
func TestCaptureReportsRunError(t *testing.T) {
	prog := compile(t, `func main() { var i = 0; while i >= 0 { i = i + 1; } return 0; }`)
	if _, err := Capture(prog, nil, interp.Config{MaxInstrs: 5000}, interp.PathTrace); err == nil {
		t.Fatal("runaway run not aborted")
	}
}
