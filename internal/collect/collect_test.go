package collect

import (
	"reflect"
	"testing"

	"repro/internal/bl"
	"repro/internal/interp"
	"repro/internal/wlc"
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
		if err := r.Artifact.Verify(); err != nil {
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

// TestRunDrainsOnError: a run that fails still finishes the builder,
// which waits for the chunked pipeline's workers to exit.
func TestRunDrainsOnError(t *testing.T) {
	prog := compile(t, `func main() { var i = 0; while i >= 0 { i = i + 1; } return 0; }`)
	var spy *finishSpy
	_, err := Run(prog, nil, interp.Config{MaxInstrs: 5000}, func(names []string, nums []*bl.Numbering) wpp.Builder {
		spy = &finishSpy{Builder: wpp.New(names, nums, wpp.BuildOptions{ChunkSize: 16, Workers: 4})}
		return spy
	})
	if err == nil {
		t.Fatal("runaway run not aborted")
	}
	if !spy.finished {
		t.Fatal("failed run left the builder unfinished")
	}
}
