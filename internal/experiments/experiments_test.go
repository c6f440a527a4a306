package experiments

import (
	"strings"
	"testing"

	"repro/internal/hotpath"
	"repro/internal/workloads"
)

func TestParseScale(t *testing.T) {
	for s, want := range map[string]Scale{"small": Small, "medium": Medium, "large": Large} {
		got, err := ParseScale(s)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("bad scale accepted")
	}
}

func TestScaleArg(t *testing.T) {
	w := workloads.All[0]
	if Small.Arg(w) != w.Small || Medium.Arg(w) != w.Medium || Large.Arg(w) != w.Large {
		t.Fatal("Scale.Arg mapping wrong")
	}
}

func TestE1(t *testing.T) {
	rows, tbl, err := E1(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads.All) {
		t.Fatalf("%d rows, want %d", len(rows), len(workloads.All))
	}
	for _, r := range rows {
		if r.Instructions == 0 || r.PathEvents == 0 || r.DistinctPaths == 0 || r.RawBytes == 0 {
			t.Fatalf("degenerate row %+v", r)
		}
		if r.FixedBytes != int64(r.PathEvents)*8 {
			t.Fatalf("fixed bytes inconsistent: %+v", r)
		}
		if r.StaticPaths < uint64(r.DistinctPaths) {
			t.Fatalf("distinct paths exceed static paths: %+v", r)
		}
	}
	if !strings.Contains(tbl.String(), "E1") {
		t.Fatal("table render missing ID")
	}
}

func TestE2ShapesMatchPaper(t *testing.T) {
	rows, tbl, err := E2(Small)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads.All) {
		t.Fatal("missing rows")
	}
	var wppWins int
	for _, r := range rows {
		// Paper shape 1: WPP compresses the trace by a large factor
		// (short traces amortize the header poorly; require less there).
		want := 3.0
		if r.RawBytes < 10000 {
			want = 1.2
		}
		if r.FactorWPP < want {
			t.Errorf("%s: raw/wpp factor %.2f too low (raw=%d)", r.Name, r.FactorWPP, r.RawBytes)
		}
		// Paper shape 2: SEQUITUR is competitive with gzip-class
		// compression on path traces.
		if r.WPPvsDeflate < 2.5 {
			wppWins++
		}
	}
	if wppWins < len(rows)/2 {
		t.Errorf("WPP should be within ~2.5x of DEFLATE on most workloads; competitive on %d/%d\n%s", wppWins, len(rows), tbl)
	}
	t.Log("\n" + tbl.String())
}

func TestE3(t *testing.T) {
	rows, tbl, err := E3(Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Plain <= 0 || r.TraceWrite <= 0 || r.WPPBuild <= 0 {
			t.Fatalf("non-positive timing %+v", r)
		}
	}
	t.Log("\n" + tbl.String())
}

func TestE4(t *testing.T) {
	series, tbl, err := E4(Small, []string{"expr", "compress"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) < 2 {
			t.Fatalf("%s: only %d points", s.Name, len(s.Points))
		}
		last := s.Points[len(s.Points)-1]
		first := s.Points[0]
		if last.Events <= first.Events {
			t.Fatalf("%s: events not increasing", s.Name)
		}
		// Paper shape: grammar grows sublinearly — symbols per event must
		// shrink as the trace lengthens.
		f0 := float64(first.RHSSymbols) / float64(first.Events)
		f1 := float64(last.RHSSymbols) / float64(last.Events)
		if f1 >= f0 {
			t.Errorf("%s: grammar not sublinear: %.4f -> %.4f", s.Name, f0, f1)
		}
	}
	t.Log("\n" + tbl.String())
}

func TestE5(t *testing.T) {
	rows, tbl, err := E5(Small, []int{2, 4}, []float64{0.01, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads.All)*4 {
		t.Fatalf("%d rows", len(rows))
	}
	byName := map[string][]E5Row{}
	for _, r := range rows {
		byName[r.Name] = append(byName[r.Name], r)
	}
	for name, rs := range byName {
		// Paper shape: higher thresholds yield fewer (or equal) hot
		// subpaths at the same minLen.
		for _, l := range []int{2, 4} {
			var lo, hi int
			for _, r := range rs {
				if r.MinLen != l {
					continue
				}
				if r.Threshold == 0.01 {
					lo = r.Count
				} else {
					hi = r.Count
				}
			}
			if hi > lo {
				t.Errorf("%s minLen=%d: %d subpaths at 10%% > %d at 1%%", name, l, hi, lo)
			}
		}
		// Paper shape: loopy programs have at least one hot subpath at a
		// permissive threshold.
		found := false
		for _, r := range rs {
			if r.Threshold == 0.01 && r.Count > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no hot subpaths even at 1%%", name)
		}
	}
	t.Log("\n" + tbl.String())
}

func TestE6(t *testing.T) {
	rows, tbl, err := E6(Small, hotpath.Options{MinLen: 2, MaxLen: 8, Threshold: 0.02}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !r.Agree {
			t.Errorf("%s: grammar and scan analyses disagree", r.Name)
		}
	}
	t.Log("\n" + tbl.String())
}

func TestA1(t *testing.T) {
	rows, tbl, err := A1(Small, []string{"compress", "matrix", "queens"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper shape: paths shorten the trace by several x.
		if r.EventRatio < 1.5 {
			t.Errorf("%s: block/path event ratio only %.2f", r.Name, r.EventRatio)
		}
	}
	t.Log("\n" + tbl.String())
}

func TestA2(t *testing.T) {
	rows, tbl, err := A2(Small, []string{"expr", "sort"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RulesOff < r.RulesOn {
			t.Errorf("%s: utility-off produced fewer rules (%d < %d)", r.Name, r.RulesOff, r.RulesOn)
		}
	}
	t.Log("\n" + tbl.String())
}

func TestA3(t *testing.T) {
	rows, tbl, err := A3(Small, []string{"compress"}, []uint64{500, 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // monolithic + two chunk sizes
		t.Fatalf("%d rows", len(rows))
	}
	mono := rows[0]
	if mono.ChunkSize != 0 || mono.Chunks != 1 {
		t.Fatalf("first row should be monolithic: %+v", mono)
	}
	for _, r := range rows[1:] {
		// Paper shape: chunking bounds live memory...
		if uint64(r.PeakLiveRHS) > r.ChunkSize+2 {
			t.Errorf("chunk %d: peak %d exceeds bound", r.ChunkSize, r.PeakLiveRHS)
		}
		// ...at a modest size cost.
		if r.Penalty < 1.0 {
			t.Errorf("chunk %d: penalty %.2f < 1 (chunking cannot beat monolithic)", r.ChunkSize, r.Penalty)
		}
	}
	t.Log("\n" + tbl.String())
}

func TestA4(t *testing.T) {
	rows, tbl, err := A4(Small, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Constant-laden programs must fold measurably.
		if r.InstrRatio > 0.95 {
			t.Errorf("%s: folding saved too little (%.3f)", r.Name, r.InstrRatio)
		}
		if r.OptEvents == 0 || r.OptBytes == 0 {
			t.Errorf("%s: degenerate optimized profile %+v", r.Name, r)
		}
	}
	t.Log("\n" + tbl.String())
}

func TestA5(t *testing.T) {
	rows, tbl, err := A5(workloads.Names())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads.All) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		// Paper shape: the spanning tree removes instrumentation from a
		// large fraction of edges.
		if r.Fraction > 0.6 {
			t.Errorf("%s: %.0f%% of edges instrumented", r.Name, r.Fraction*100)
		}
	}
	t.Log("\n" + tbl.String())
}

func TestA6(t *testing.T) {
	rows, tbl, err := A6(Small, []string{"compress", "queens", "sim"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Paper shape: chords cut dynamic increments well below one per
		// edge, and the profile-weighted tree never does worse.
		if r.UnweightedFrac >= 1.0 {
			t.Errorf("%s: chords no better than every-edge (%.2f)", r.Name, r.UnweightedFrac)
		}
		if r.Weighted > r.Unweighted {
			t.Errorf("%s: weighted placement worse than unweighted (%d > %d)", r.Name, r.Weighted, r.Unweighted)
		}
	}
	t.Log("\n" + tbl.String())
}

func TestWPPForWorkload(t *testing.T) {
	w, err := WPPForWorkload("queens", Small)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Verify(1); err != nil {
		t.Fatal(err)
	}
	if _, err := WPPForWorkload("nope", Small); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
