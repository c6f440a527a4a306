package dataflow

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/wlc"
	"repro/internal/workloads"
)

// runPlain executes the program's main(arg) without tracing, capturing
// print output and the return value.
func runPlain(t *testing.T, p *wlc.Program, arg int64) (int64, string) {
	t.Helper()
	var out bytes.Buffer
	m, err := interp.New(p, interp.Config{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := m.Run("main", arg)
	if err != nil {
		t.Fatal(err)
	}
	return ret, out.String()
}

func TestDeadBranchFoldsConstant(t *testing.T) {
	src := `
func main(n) {
    var debug = 0;
    if debug { print 999; }
    return n + 2;
}`
	p, err := wlc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EliminateDeadBranches(p)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BranchesFolded == 0 {
		t.Error("constant `if 0` not folded")
	}
	if rep.BlocksRemoved == 0 {
		t.Error("the dead print block not removed")
	}
	for _, f := range p.Funcs {
		for _, blk := range f.Graph.Blocks() {
			if f.Terms[blk.ID].Kind == wlc.TermBranch {
				t.Errorf("%s: branch survived at block %d", f.Name, blk.ID)
			}
		}
	}
	if ret, out := runPlain(t, p, 40); ret != 42 || out != "" {
		t.Errorf("pruned program returned (%d, %q), want (42, \"\")", ret, out)
	}
}

func TestDeadBranchSkipsInfiniteLoop(t *testing.T) {
	// Folding `while 1` would disconnect the exit; the function must be
	// left alone and reported, not broken.
	src := `
func spin(n) {
    while 1 { n = n + 1; }
    return n;
}
func main(n) {
    if n > 100 { return spin(n); }
    return n;
}`
	p, err := wlc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EliminateDeadBranches(p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range rep.SkippedFuncs {
		if name == "spin" {
			found = true
		}
	}
	if !found {
		t.Fatalf("SkippedFuncs = %v, want to contain spin", rep.SkippedFuncs)
	}
	if !strings.Contains(rep.String(), "skipped") {
		t.Errorf("report string %q does not mention skips", rep.String())
	}
	// main still runs (and never calls spin for small n).
	if ret, _ := runPlain(t, p, 5); ret != 5 {
		t.Errorf("main(5) = %d, want 5", ret)
	}
}

// TestDeadBranchDifferentialOnWorkloads is the acceptance differential:
// on every bundled workload, the pruned program must produce output and
// return value identical to the unpruned one.
func TestDeadBranchDifferentialOnWorkloads(t *testing.T) {
	totalFolded := 0
	for _, w := range workloads.All {
		plain, err := wlc.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		pruned, err := wlc.Compile(w.Source)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if _, err := EliminateDeadBranches(pruned); err != nil {
			t.Fatalf("%s: dead-branch pass: %v", w.Name, err)
		}

		wantRet, wantOut := runPlain(t, plain, w.Small)
		gotRet, gotOut := runPlain(t, pruned, w.Small)
		if gotRet != wantRet {
			t.Errorf("%s: pruned return = %d, plain = %d", w.Name, gotRet, wantRet)
		}
		if gotOut != wantOut {
			t.Errorf("%s: pruned print output diverges from plain (%d vs %d bytes)", w.Name, len(gotOut), len(wantOut))
		}

		rep, err := EliminateDeadBranches(plain)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		totalFolded += rep.BranchesFolded
	}
	if totalFolded == 0 {
		t.Log("note: no workload branch folded; pass is exercised by unit tests only")
	}
}
