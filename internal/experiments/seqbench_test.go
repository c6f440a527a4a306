package experiments

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSeqBenchSmall(t *testing.T) {
	res, err := SeqBench(Small, []string{"compress", "sort"}, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != SeqLayout.Schema {
		t.Fatalf("schema = %q, want %q", res.Schema, SeqLayout.Schema)
	}
	if res.Config["scale"] != "small" || res.Config["chunk"] != "512" || res.Config["go"] == "" {
		t.Fatalf("config not recorded: %v", res.Config)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d workload rows, want 2", len(res.Rows))
	}
	for _, w := range res.Rows {
		if w.Events == 0 {
			t.Errorf("%s: zero events traced", w.Name)
		}
		if w.Mono.EventsPerSec <= 0 || w.Chunked.EventsPerSec <= 0 {
			t.Errorf("%s: non-positive throughput: mono %v, chunked %v", w.Name, w.Mono.EventsPerSec, w.Chunked.EventsPerSec)
		}
		if w.Mono.Rules <= 0 || w.Mono.RHSSymbols <= 0 {
			t.Errorf("%s: empty monolithic grammar: %+v", w.Name, w.Mono)
		}
		if w.Mono.Chunks != 1 {
			t.Errorf("%s: mono chunks = %d, want 1", w.Name, w.Mono.Chunks)
		}
		wantChunks := int((w.Events + 511) / 512)
		if w.Chunked.Chunks != wantChunks {
			t.Errorf("%s: chunked into %d grammars, want %d for %d events", w.Name, w.Chunked.Chunks, wantChunks, w.Events)
		}
		// Chunking forfeits cross-chunk repetition, so the summed chunk
		// grammars can only be at least as large as the monolithic one.
		if w.Chunked.RHSSymbols < w.Mono.RHSSymbols {
			t.Errorf("%s: chunked rhs %d < mono rhs %d", w.Name, w.Chunked.RHSSymbols, w.Mono.RHSSymbols)
		}
	}
	if tbl := SeqLayout.Table(res); len(tbl.Rows) != 2 {
		t.Fatalf("table has %d rows, want 2", len(tbl.Rows))
	}
}

// TestSeqBenchJSONRoundTrip keeps a real run through Save and Load and
// requires the envelope and every row back unchanged.
func TestSeqBenchJSONRoundTrip(t *testing.T) {
	res, err := SeqBench(Small, []string{"sort"}, 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seq.json")
	if err := SeqLayout.Save(path, res); err != nil {
		t.Fatal(err)
	}
	back, err := SeqLayout.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Fatalf("round trip changed the run:\n got %+v\nwant %+v", back, res)
	}
}

// TestSeqLayoutCompare checks the shared Compare on S1 rows: only rows on
// both sides, signed deltas, a nil baseline and a flagged config change.
func TestSeqLayoutCompare(t *testing.T) {
	old := &Trajectory[SeqBenchRow]{
		Schema: SeqLayout.Schema, Config: map[string]string{"scale": "small", "chunk": "512"},
		Rows: []SeqBenchRow{
			{Name: "sort", Mono: SeqBenchMeasure{EventsPerSec: 1e6}, Chunked: SeqBenchMeasure{EventsPerSec: 2e6}},
			{Name: "gone", Mono: SeqBenchMeasure{EventsPerSec: 1e6}},
		},
	}
	cur := &Trajectory[SeqBenchRow]{
		Schema: SeqLayout.Schema, Config: map[string]string{"scale": "small", "chunk": "512"},
		Rows: []SeqBenchRow{
			{Name: "sort", Mono: SeqBenchMeasure{EventsPerSec: 2e6}, Chunked: SeqBenchMeasure{EventsPerSec: 3e6}},
			{Name: "new", Mono: SeqBenchMeasure{EventsPerSec: 1e6}},
		},
	}
	tbl := SeqLayout.Compare(old, cur)
	if len(tbl.Rows) != 1 {
		t.Fatalf("comparison has %d rows, want 1 (only workloads on both sides)", len(tbl.Rows))
	}
	row := strings.Join(tbl.Rows[0], " ")
	if !strings.Contains(row, "+100.0%") || !strings.Contains(row, "+50.0%") {
		t.Fatalf("deltas wrong: %q", row)
	}
	if len(tbl.Notes) != 0 {
		t.Fatalf("equal configs flagged: %v", tbl.Notes)
	}
	// A slowdown reads as a negative delta.
	if tbl = SeqLayout.Compare(cur, old); !strings.Contains(strings.Join(tbl.Rows[0], " "), "-50.0%") {
		t.Fatalf("negative delta wrong: %q", tbl.Rows[0])
	}
	if tbl = SeqLayout.Compare(nil, cur); len(tbl.Rows) != 0 {
		t.Fatalf("nil baseline must yield an empty comparison, got %d rows", len(tbl.Rows))
	}
	// A config mismatch is flagged, not hidden.
	old.Config["chunk"] = "4096"
	if tbl = SeqLayout.Compare(old, cur); len(tbl.Notes) == 0 || !strings.Contains(tbl.Notes[0], "configs differ") {
		t.Fatalf("config mismatch not flagged: %v", tbl.Notes)
	}
}
