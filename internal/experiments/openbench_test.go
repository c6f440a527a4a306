package experiments

import (
	"strings"
	"testing"
)

// TestOpenBenchInvariants runs the open-path bench on a small slice of
// the grid and checks the properties the committed trajectory relies
// on: one row per workload x format, every row parity-checked
// identical, and sane measurements.
func TestOpenBenchInvariants(t *testing.T) {
	names := []string{"compress", "expr"}
	res, err := OpenBench(Small, names, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != OpenLayout.Schema {
		t.Fatalf("schema %q", res.Schema)
	}
	if want := len(names) * 4; len(res.Rows) != want {
		t.Fatalf("%d rows, want %d", len(res.Rows), want)
	}
	seen := map[string]bool{}
	for _, r := range res.Rows {
		key := r.Name + "." + r.Format
		if seen[key] {
			t.Fatalf("duplicate row %s", key)
		}
		seen[key] = true
		if !r.Identical {
			t.Errorf("%s: view disagrees with eager decode", key)
		}
		if r.Bytes <= 0 || r.Events == 0 {
			t.Errorf("%s: empty measurement row: %+v", key, r)
		}
		if r.EagerStatsMS < 0 || r.ViewStatsMS < 0 || r.EagerHotMS < 0 || r.ViewHotMS < 0 {
			t.Errorf("%s: negative timing: %+v", key, r)
		}
	}
	tbl := OpenLayout.Table(res)
	if tbl.ID != "M1" {
		t.Fatalf("table ID %q, want M1", tbl.ID)
	}
	if !strings.Contains(tbl.String(), "identical") {
		t.Fatal("table misses the identical column")
	}

	// The diff table pairs rows across runs by workload and format.
	diff := OpenLayout.Compare(res, res)
	if len(diff.Rows) != len(res.Rows) {
		t.Fatalf("diff table has %d rows, want %d", len(diff.Rows), len(res.Rows))
	}
}
