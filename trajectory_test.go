package repro_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/serve"
)

// TestCommittedTrajectoriesLoad loads every committed BENCH_*.json file
// through its bench's layout and renders its table, so a file that drifts
// from the shared trajectory envelope fails here and not in the next
// bench run that diffs against it.
func TestCommittedTrajectoriesLoad(t *testing.T) {
	loadCommitted(t, "BENCH_sequitur.json", &experiments.SeqLayout)
	loadCommitted(t, "BENCH_eventpath.json", &experiments.EventLayout)
	loadCommitted(t, "BENCH_store.json", &experiments.StoreLayout)
	loadCommitted(t, "BENCH_openpath.json", &experiments.OpenLayout)
	loadCommitted(t, "BENCH_serve.json", &serve.LoadLayout)
}

func loadCommitted[R any](t *testing.T, path string, l *experiments.Layout[R]) {
	t.Helper()
	tr, err := l.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || len(tr.Rows) == 0 {
		t.Fatalf("%s: no committed rows", path)
	}
	tbl := l.Table(tr)
	if len(tbl.Rows) != len(tr.Rows) || !strings.HasPrefix(tbl.String(), "== "+l.ID+": ") {
		t.Fatalf("%s: rendered %d of %d rows:\n%s", path, len(tbl.Rows), len(tr.Rows), tbl)
	}
}

// TestExampleOutputIsDeterministic builds each example once and runs it
// twice: every output is a function of the bundled workload alone, so
// the two runs must print the same bytes.
func TestExampleOutputIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping example builds in -short mode")
	}
	dir := t.TempDir()
	for _, ex := range []string{"coverage", "calltree", "hotpaths", "quickstart", "tracediff"} {
		bin := filepath.Join(dir, ex)
		if out, err := exec.Command("go", "build", "-o", bin, "./examples/"+ex).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", ex, err, out)
		}
		first := runTool(t, bin)
		if second := runTool(t, bin); first != second {
			t.Errorf("%s printed different output on a second run:\n%s\n---\n%s", ex, first, second)
		}
	}
}
