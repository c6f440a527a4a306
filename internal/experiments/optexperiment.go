package experiments

import (
	"fmt"

	"repro/internal/collect"
	"repro/internal/interp"
	"repro/internal/wlc"
	iwpp "repro/internal/wpp"
)

// a4Programs are written the way macro-expanded or debug-laden code looks
// — manifest constant arithmetic, constant guards, dead debug arms — so
// the constant folder has something to do. The suite workloads are
// hand-tuned and fold-free, which would make this ablation a no-op.
var a4Programs = []struct {
	name   string
	source string
	// scale multipliers applied to the experiment Scale's base factor.
	small, medium, large int64
}{
	{
		name: "poly",
		source: `
func main(n) {
    var s = 0;
    var i = 0;
    while i < n {
        var x = i % (25 * 4);
        s = s + x * (2 * 3 + 1) + (1 << 4) - (100 / 5);
        if 0 { print s; }
        if 1 { s = s + x / (2 + 2); } else { s = 0 - s; }
        while 0 { s = 77; }
        i = i + 1 * 1 + 0;
    }
    return s % 1000000007;
}`,
		small: 2000, medium: 60000, large: 250000,
	},
	{
		name: "guards",
		source: `
func classify(v) {
    if v < 16 * 4 { return v * (3 - 1); }
    if v < 16 * 16 { return v / (1 + 1); }
    return v - 256 % 7;
}
func main(n) {
    var s = 0;
    var i = 0;
    while i < n {
        var v = (i * 37) % (10 * 50);
        if 1 && v >= 0 { s = s + classify(v); }
        if 0 || 0 { s = 0; }
        for var j = 0; j < 2 + 1; j = j + 1 { s = s + j * (4 / 4); }
        i = i + 1;
    }
    return s % 1000000007;
}`,
		small: 1000, medium: 30000, large: 120000,
	},
}

// A4Row compares WPPs of plain and optimized builds of one program.
type A4Row struct {
	Name string
	// Plain/Opt instruction and event counts.
	PlainInstrs, OptInstrs uint64
	PlainEvents, OptEvents uint64
	// Plain/Opt WPP sizes in bytes.
	PlainBytes, OptBytes int64
	// InstrRatio is OptInstrs / PlainInstrs.
	InstrRatio float64
	// SizeRatio is OptBytes / PlainBytes.
	SizeRatio float64
}

// A4 profiles constant-laden programs twice — plain and constant-folded
// builds — demonstrating that a WPP is a property of the compiled
// program, not the source: optimization shortens traces and changes their
// shape while results stay identical.
func A4(scale Scale, _ []string) ([]A4Row, *Table, error) {
	var rows []A4Row
	tbl := &Table{
		ID:     "A4",
		Title:  "ablation: WPPs of plain vs constant-folded builds",
		Header: []string{"program", "instrs plain", "instrs opt", "events plain", "events opt", "wpp B plain", "wpp B opt", "instr o/p", "size o/p"},
		Notes:  []string{"results are identical between builds; traces are not", "programs are constant-laden (macro-expansion style); the suite workloads contain nothing foldable"},
	}
	for _, prog := range a4Programs {
		var arg int64
		switch scale {
		case Small:
			arg = prog.small
		case Large:
			arg = prog.large
		default:
			arg = prog.medium
		}
		build := func(opt bool) (uint64, uint64, int64, int64, error) {
			compiled, err := wlc.CompileWithOptions(prog.source, wlc.Options{ConstFold: opt})
			if err != nil {
				return 0, 0, 0, 0, err
			}
			t, err := collect.Run(compiled, []int64{arg}, interp.Config{}, collect.Build(iwpp.BuildOptions{}))
			if err != nil {
				return 0, 0, 0, 0, err
			}
			return t.Stats.Instructions, t.Stats.Events, t.Report.BytesOut, t.Value, nil
		}
		pi, pe, pb, pres, err := build(false)
		if err != nil {
			return nil, nil, err
		}
		oi, oe, ob, ores, err := build(true)
		if err != nil {
			return nil, nil, err
		}
		if pres != ores {
			return nil, nil, fmt.Errorf("A4: %s: optimization changed result (%d vs %d)", prog.name, pres, ores)
		}
		r := A4Row{
			Name: prog.name, PlainInstrs: pi, OptInstrs: oi,
			PlainEvents: pe, OptEvents: oe,
			PlainBytes: pb, OptBytes: ob,
			InstrRatio: float64(oi) / float64(pi),
			SizeRatio:  ratio(ob, pb),
		}
		rows = append(rows, r)
		tbl.Rows = append(tbl.Rows, []string{
			r.Name, fmt.Sprint(pi), fmt.Sprint(oi), fmt.Sprint(pe), fmt.Sprint(oe),
			fmt.Sprint(pb), fmt.Sprint(ob), fmt.Sprintf("%.3f", r.InstrRatio), fmt.Sprintf("%.3f", r.SizeRatio),
		})
	}
	return rows, tbl, nil
}
