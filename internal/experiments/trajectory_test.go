package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestTrajectoryLoadMissingIsBaseline(t *testing.T) {
	old, err := SeqLayout.Load(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || old != nil {
		t.Fatalf("missing file: got (%v, %v), want (nil, nil)", old, err)
	}
}

// TestTrajectoryLoadRejects requires a damaged file and a file of another
// bench to fail with an error that names the fix, instead of being
// overwritten.
func TestTrajectoryLoadRejects(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"invalid JSON": `{"schema": "wpp/seqbench/v2", "rows": [`,
		"wrong schema": `{"schema": "wpp/openbench/v2", "config": {}, "rows": []}`,
		"old envelope": `{"schema": "wpp/seqbench/v1", "scale": "medium", "workloads": []}`,
	} {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		old, err := SeqLayout.Load(path)
		if err == nil || !strings.Contains(err.Error(), "delete it to start fresh") {
			t.Errorf("%s: got (%v, %v), want an error saying to delete the file", name, old, err)
		}
	}
}

func TestTrajectorySaveLoadKeepsRows(t *testing.T) {
	cur := &Trajectory[StoreBenchRow]{
		Schema: StoreLayout.Schema,
		Config: map[string]string{"chunk": "4096", "scale": "small,medium"},
		Rows: []StoreBenchRow{
			{Name: "expr", Scale: "small", ArtifactBytes: 7, Parts: 2, ColdResolveMS: 1.25, WarmResolveMS: 0.0625, Speedup: 20, RepeatDedupedBytes: 7},
			{Name: "sort", Scale: "medium", ArtifactBytes: 1 << 40, Parts: 9, ColdResolveMS: 3.5e-7, RepeatNewObjects: 1},
		},
		Totals: map[string]float64{"bytes_written": 123456789, "dedup_ratio": 0.5056865969750962},
	}
	path := filepath.Join(t.TempDir(), "store.json")
	if err := StoreLayout.Save(path, cur); err != nil {
		t.Fatal(err)
	}
	back, err := StoreLayout.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, cur) {
		t.Fatalf("round trip changed the run:\n got %+v\nwant %+v", back, cur)
	}
	// Totals are compared as notes; a row on one side only is dropped.
	cur.Totals["bytes_written"] *= 2
	cur.Rows = cur.Rows[:1]
	tbl := StoreLayout.Compare(back, cur)
	if len(tbl.Rows) != 1 || tbl.Rows[0][0] != "expr@small" {
		t.Fatalf("compare rows: %v", tbl.Rows)
	}
	if !strings.Contains(strings.Join(tbl.Notes, "\n"), "bytes_written: 123456789 -> 246913578 (+100.0%)") {
		t.Fatalf("totals not compared: %v", tbl.Notes)
	}
}
