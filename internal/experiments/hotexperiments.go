package experiments

import (
	"fmt"
	"time"

	"repro/internal/hotpath"
	"repro/internal/interp"
	"repro/internal/sequitur"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// ---------------------------------------------------------------------
// E5: minimal hot subpaths (the paper's flagship analysis).

// E5Row reports the hot-subpath population for one (workload, minLen,
// threshold) cell.
type E5Row struct {
	Name      string
	MinLen    int
	Threshold float64
	// Count is the number of minimal hot subpaths found.
	Count int
	// MeanLen is their average length in acyclic paths.
	MeanLen float64
	// Coverage is the sum of cost fractions (can exceed 1 with overlap).
	Coverage float64
	// HottestFraction is the top subpath's cost fraction.
	HottestFraction float64
}

// E5 runs the hot-subpath analysis over a (minLen, threshold) grid. Each
// minLen uses MaxLen = 4*minLen, mirroring the paper's bounded search.
func E5(scale Scale, minLens []int, thresholds []float64) ([]E5Row, *Table, error) {
	arts, err := RunAll(scale)
	if err != nil {
		return nil, nil, err
	}
	var rows []E5Row
	tbl := &Table{
		ID:     "E5",
		Title:  "minimal hot subpaths (paper's hot-subpath tables)",
		Header: []string{"workload", "minLen", "threshold", "subpaths", "mean len", "coverage", "hottest"},
	}
	for _, a := range arts {
		for _, l := range minLens {
			for _, th := range thresholds {
				subs, err := hotpath.Find(a.wpp, hotpath.Options{MinLen: l, MaxLen: 4 * l, Threshold: th}, 1)
				if err != nil {
					return nil, nil, err
				}
				r := E5Row{Name: a.workload.Name, MinLen: l, Threshold: th, Count: len(subs)}
				if len(subs) > 0 {
					var lenSum int
					for _, s := range subs {
						lenSum += len(s.Events)
					}
					r.MeanLen = float64(lenSum) / float64(len(subs))
					r.Coverage = hotpath.Coverage(subs)
					r.HottestFraction = subs[0].Fraction
				}
				rows = append(rows, r)
				tbl.Rows = append(tbl.Rows, []string{
					r.Name, fmt.Sprint(l), fmt.Sprintf("%.3f", th), fmt.Sprint(r.Count),
					fmt.Sprintf("%.1f", r.MeanLen), fmt.Sprintf("%.2f", r.Coverage),
					fmt.Sprintf("%.3f", r.HottestFraction),
				})
			}
		}
	}
	return rows, tbl, nil
}

// ---------------------------------------------------------------------
// E6: analysis time, compressed vs decompressed.

// E6Row compares hot-subpath search time on the grammar against the
// decompress-and-scan baseline.
type E6Row struct {
	Name       string
	Events     uint64
	RHSSymbols int
	Grammar    time.Duration
	Scan       time.Duration
	Speedup    float64 // Scan / Grammar
	Agree      bool    // both produced identical results
}

// E6 times hotpath.Find against hotpath.FindByScan with the given options
// applied to every workload.
func E6(scale Scale, opts hotpath.Options, reps int) ([]E6Row, *Table, error) {
	arts, err := RunAll(scale)
	if err != nil {
		return nil, nil, err
	}
	if reps < 1 {
		reps = 1
	}
	var rows []E6Row
	tbl := &Table{
		ID:     "E6",
		Title:  "hot-subpath analysis time: compressed grammar vs decompress-and-scan",
		Header: []string{"workload", "events", "symbols", "grammar", "scan", "speedup", "agree"},
		Notes:  []string{fmt.Sprintf("options: minLen=%d maxLen=%d threshold=%.3f, best of %d", opts.MinLen, opts.MaxLen, opts.Threshold, reps)},
	}
	for _, a := range arts {
		var fast, slow []hotpath.Subpath
		best, err := bestOf(reps, func() error {
			var err error
			fast, err = hotpath.Find(a.wpp, opts, 1)
			return err
		}, func() error {
			var err error
			slow, err = hotpath.FindByScan(a.wpp, opts)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		agree := len(fast) == len(slow)
		if agree {
			for i := range fast {
				if fast[i].Count != slow[i].Count || fast[i].Cost != slow[i].Cost {
					agree = false
					break
				}
			}
		}
		st := a.wpp.Stats()
		r := E6Row{
			Name: a.workload.Name, Events: st.Events, RHSSymbols: st.RHSSymbols,
			Grammar: best[0], Scan: best[1], Speedup: dratio(best[1], best[0]), Agree: agree,
		}
		rows = append(rows, r)
		tbl.Rows = append(tbl.Rows, []string{
			r.Name, fmt.Sprint(r.Events), fmt.Sprint(r.RHSSymbols),
			r.Grammar.String(), r.Scan.String(), fmt.Sprintf("%.1f", r.Speedup), fmt.Sprint(r.Agree),
		})
	}
	return rows, tbl, nil
}

// ---------------------------------------------------------------------
// A1: ablation — path alphabet vs basic-block alphabet.

// A1Row compares tracing the same execution with basic-block events
// against Ball–Larus path events.
type A1Row struct {
	Name        string
	BlockEvents uint64
	PathEvents  uint64
	EventRatio  float64 // block / path
	BlockBytes  int64   // SEQUITUR-compressed block trace (grammar bytes)
	PathBytes   int64   // SEQUITUR-compressed path trace (grammar bytes)
	SizeRatio   float64 // block / path
}

// A1 quantifies why the WPP uses the acyclic-path alphabet: same
// executions, two alphabets, both SEQUITUR-compressed.
func A1(scale Scale, names []string) ([]A1Row, *Table, error) {
	var rows []A1Row
	tbl := &Table{
		ID:     "A1",
		Title:  "ablation: basic-block alphabet vs Ball-Larus path alphabet",
		Header: []string{"workload", "block events", "path events", "events b/p", "block grammar B", "path grammar B", "size b/p"},
	}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		_, block, err := capture(w, scale, interp.BlockTrace)
		if err != nil {
			return nil, nil, err
		}
		_, path, err := capture(w, scale, interp.PathTrace)
		if err != nil {
			return nil, nil, err
		}
		gBlock, gPath := sequitur.New(), sequitur.New()
		sequitur.AppendBatchOf(gBlock, block.Events)
		sequitur.AppendBatchOf(gPath, path.Events)
		r := A1Row{
			Name:        w.Name,
			BlockEvents: uint64(len(block.Events)),
			PathEvents:  uint64(len(path.Events)),
			BlockBytes:  gBlock.Snapshot().EncodedSize(),
			PathBytes:   gPath.Snapshot().EncodedSize(),
		}
		r.EventRatio = float64(r.BlockEvents) / float64(r.PathEvents)
		r.SizeRatio = ratio(r.BlockBytes, r.PathBytes)
		rows = append(rows, r)
		tbl.Rows = append(tbl.Rows, []string{
			r.Name, fmt.Sprint(r.BlockEvents), fmt.Sprint(r.PathEvents), fmt.Sprintf("%.1f", r.EventRatio),
			fmt.Sprint(r.BlockBytes), fmt.Sprint(r.PathBytes), fmt.Sprintf("%.2f", r.SizeRatio),
		})
	}
	return rows, tbl, nil
}

// ---------------------------------------------------------------------
// A2: ablation — SEQUITUR rule utility.

// A2Row compares grammar sizes with the rule-utility invariant on and
// off.
type A2Row struct {
	Name                string
	RulesOn, RulesOff   int
	SymbolsOn, SymsOff  int
	BytesOn, BytesOff   int64
	SizePenaltyUtilOff  float64 // BytesOff / BytesOn
	RulesPenaltyUtilOff float64 // RulesOff / RulesOn
}

// A2 measures what the rule-utility invariant contributes.
func A2(scale Scale, names []string) ([]A2Row, *Table, error) {
	var rows []A2Row
	tbl := &Table{
		ID:     "A2",
		Title:  "ablation: SEQUITUR rule utility on vs off",
		Header: []string{"workload", "rules on", "rules off", "syms on", "syms off", "bytes on", "bytes off", "bytes off/on"},
	}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		_, t, err := capture(w, scale, interp.PathTrace)
		if err != nil {
			return nil, nil, err
		}
		gOn := sequitur.New()
		gOff := sequitur.NewWithOptions(sequitur.Options{DisableRuleUtility: true})
		sequitur.AppendBatchOf(gOn, t.Events)
		sequitur.AppendBatchOf(gOff, t.Events)
		on, off := gOn.Stats(), gOff.Stats()
		r := A2Row{
			Name:    w.Name,
			RulesOn: on.Rules, RulesOff: off.Rules,
			SymbolsOn: on.RHSSymbols, SymsOff: off.RHSSymbols,
			BytesOn: gOn.Snapshot().EncodedSize(), BytesOff: gOff.Snapshot().EncodedSize(),
		}
		r.SizePenaltyUtilOff = ratio(r.BytesOff, r.BytesOn)
		r.RulesPenaltyUtilOff = float64(r.RulesOff) / float64(max(1, r.RulesOn))
		rows = append(rows, r)
		tbl.Rows = append(tbl.Rows, []string{
			r.Name, fmt.Sprint(r.RulesOn), fmt.Sprint(r.RulesOff),
			fmt.Sprint(r.SymbolsOn), fmt.Sprint(r.SymsOff),
			fmt.Sprint(r.BytesOn), fmt.Sprint(r.BytesOff), fmt.Sprintf("%.2f", r.SizePenaltyUtilOff),
		})
	}
	return rows, tbl, nil
}

// WPPForWorkload builds the WPP of one workload at the given scale, for
// callers (examples, tools) that want a single artifact.
func WPPForWorkload(name string, scale Scale) (*iwpp.WPP, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	a, err := collectWorkload(w, scale)
	if err != nil {
		return nil, err
	}
	return a.wpp, nil
}
