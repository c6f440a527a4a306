// Package experiments regenerates every table and figure of the
// whole-program-paths evaluation (Larus, PLDI 1999) on the WL workload
// suite. Each experiment returns structured rows plus a rendered table;
// cmd/wppbench prints them and bench_test.go wraps them as Go benchmarks.
//
// Experiment index (see DESIGN.md for the paper mapping):
//
//	E1  benchmark characteristics (paper Table 1)
//	E2  trace vs WPP vs DEFLATE sizes (paper's compression results)
//	E3  collection overhead (paper's instrumentation cost discussion)
//	E4  WPP growth vs trace length (paper's size-vs-length figure)
//	E5  minimal hot subpaths (paper's hot-subpath tables)
//	E6  analysis time on compressed vs decompressed form
//	A1  ablation: path alphabet vs basic-block alphabet
//	A2  ablation: SEQUITUR rule utility on/off
//	F1  static path feasibility vs dynamic coverage (dataflow framework)
//
// The extension benches S1, B1, C1 and M1 return a Trajectory instead,
// which their Layout renders, compares with a previous run and keeps as
// a BENCH_*.json file (trajectory.go); C2 is rendered by the same Layout
// machinery.
package experiments

import (
	"bytes"
	"compress/flate"
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/collect"
	"repro/internal/interp"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// Scale selects workload sizing.
type Scale int

// Scales.
const (
	Small Scale = iota
	Medium
	Large
)

// ParseScale converts a flag string.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	}
	return 0, fmt.Errorf("experiments: unknown scale %q (want small|medium|large)", s)
}

func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// Arg returns the main() argument for w at this scale.
func (s Scale) Arg(w workloads.Workload) int64 {
	switch s {
	case Small:
		return w.Small
	case Large:
		return w.Large
	default:
		return w.Medium
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
	for _, r := range t.Rows {
		fmt.Fprintln(tw, strings.Join(r, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// artifacts bundles everything one traced workload run produces: the
// captured stream and the WPP built from it.
type artifacts struct {
	*collect.Trace
	workload workloads.Workload
	prog     *wlc.Program
	wpp      *iwpp.WPP
}

// collectWorkload captures one workload's run at the given scale and
// builds its monolithic WPP from the capture.
func collectWorkload(w workloads.Workload, scale Scale) (*artifacts, error) {
	prog, t, err := capture(w, scale, interp.PathTrace)
	if err != nil {
		return nil, err
	}
	b := iwpp.New(t.Names, t.Numberings, iwpp.BuildOptions{})
	b.AddBatch(t.Events)
	return &artifacts{Trace: t, workload: w, prog: prog, wpp: b.Finish(t.Stats.Instructions).(*iwpp.WPP)}, nil
}

// RunAll runs every workload traced at the given scale.
func RunAll(scale Scale) ([]*artifacts, error) {
	var out []*artifacts
	for _, w := range workloads.All {
		a, err := collectWorkload(w, scale)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// E1: benchmark characteristics (paper Table 1).

// E1Row describes one workload's dynamic profile.
type E1Row struct {
	Name          string
	Funcs         int
	StaticPaths   uint64 // sum of Ball-Larus NumPaths over functions
	Instructions  uint64
	PathEvents    uint64
	DistinctPaths int
	RawBytes      int64 // varint trace encoding
	FixedBytes    int64 // naive 8-byte-per-event encoding
}

// E1 computes benchmark characteristics.
func E1(scale Scale) ([]E1Row, *Table, error) {
	arts, err := RunAll(scale)
	if err != nil {
		return nil, nil, err
	}
	return e1FromArtifacts(arts)
}

func e1FromArtifacts(arts []*artifacts) ([]E1Row, *Table, error) {
	var rows []E1Row
	tbl := &Table{
		ID:     "E1",
		Title:  "workload characteristics (paper Table 1)",
		Header: []string{"workload", "funcs", "static paths", "instrs", "path events", "distinct paths", "trace B", "fixed B"},
	}
	for _, a := range arts {
		var static uint64
		for _, n := range a.Numberings {
			static += n.NumPaths
		}
		r := E1Row{
			Name:          a.workload.Name,
			Funcs:         len(a.prog.Funcs),
			StaticPaths:   static,
			Instructions:  a.Stats.Instructions,
			PathEvents:    a.Stats.Events,
			DistinctPaths: a.wpp.DistinctPaths(),
			RawBytes:      trace.EncodedSize(a.Events),
			FixedBytes:    trace.FixedSize(a.Events),
		}
		rows = append(rows, r)
		tbl.Rows = append(tbl.Rows, []string{
			r.Name, fmt.Sprint(r.Funcs), fmt.Sprint(r.StaticPaths), fmt.Sprint(r.Instructions),
			fmt.Sprint(r.PathEvents), fmt.Sprint(r.DistinctPaths), fmt.Sprint(r.RawBytes), fmt.Sprint(r.FixedBytes),
		})
	}
	return rows, tbl, nil
}

// ---------------------------------------------------------------------
// E2: compression (paper's WPP size results).

// E2Row compares trace encodings for one workload.
type E2Row struct {
	Name         string
	RawBytes     int64
	DeflateBytes int64
	WPPBytes     int64
	GrammarBytes int64
	// WPPDeflateBytes is the WPP artifact itself DEFLATE-compressed (the
	// paper notes a WPP remains conventionally compressible for archival).
	WPPDeflateBytes int64
	Rules           int
	RHSSymbols      int
	FactorDeflate   float64 // raw / deflate
	FactorWPP       float64 // raw / wpp
	WPPvsDeflate    float64 // wpp / deflate (<1 means WPP smaller)
}

// E2 compares raw, DEFLATE and WPP sizes.
func E2(scale Scale) ([]E2Row, *Table, error) {
	arts, err := RunAll(scale)
	if err != nil {
		return nil, nil, err
	}
	var rows []E2Row
	tbl := &Table{
		ID:     "E2",
		Title:  "trace vs gzip-style vs WPP sizes (paper Table 2 / size figure)",
		Header: []string{"workload", "raw B", "deflate B", "wpp B", "wpp+defl B", "rules", "symbols", "raw/defl", "raw/wpp", "wpp/defl"},
		Notes:  []string{"wpp B includes the function table and path-cost table; grammar-only size is smaller", "WPP stays analyzable without decompression, DEFLATE does not"},
	}
	for _, a := range arts {
		defl, err := trace.DeflateSize(a.Events, flate.BestCompression)
		if err != nil {
			return nil, nil, err
		}
		st := a.wpp.Stats()
		var encoded bytes.Buffer
		if _, err := a.wpp.Encode(&encoded); err != nil {
			return nil, nil, err
		}
		wppDefl, err := deflateBytes(encoded.Bytes())
		if err != nil {
			return nil, nil, err
		}
		r := E2Row{
			Name:            a.workload.Name,
			RawBytes:        st.RawTraceBytes,
			DeflateBytes:    defl,
			WPPBytes:        st.EncodedBytes,
			GrammarBytes:    st.GrammarBytes,
			WPPDeflateBytes: wppDefl,
			Rules:           st.Rules,
			RHSSymbols:      st.RHSSymbols,
		}
		r.FactorDeflate = ratio(r.RawBytes, r.DeflateBytes)
		r.FactorWPP = ratio(r.RawBytes, r.WPPBytes)
		r.WPPvsDeflate = ratio(r.WPPBytes, r.DeflateBytes)
		rows = append(rows, r)
		tbl.Rows = append(tbl.Rows, []string{
			r.Name, fmt.Sprint(r.RawBytes), fmt.Sprint(r.DeflateBytes), fmt.Sprint(r.WPPBytes),
			fmt.Sprint(r.WPPDeflateBytes), fmt.Sprint(r.Rules), fmt.Sprint(r.RHSSymbols),
			fmt.Sprintf("%.1f", r.FactorDeflate), fmt.Sprintf("%.1f", r.FactorWPP), fmt.Sprintf("%.2f", r.WPPvsDeflate),
		})
	}
	return rows, tbl, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// deflateBytes returns the DEFLATE-compressed size of data.
func deflateBytes(data []byte) (int64, error) {
	var cw discardCounter
	fw, err := flate.NewWriter(&cw, flate.BestCompression)
	if err != nil {
		return 0, err
	}
	if _, err := fw.Write(data); err != nil {
		return 0, err
	}
	if err := fw.Close(); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// ---------------------------------------------------------------------
// E3: collection overhead.

// E3Row reports run times for one workload under increasing
// instrumentation.
type E3Row struct {
	Name          string
	Plain         time.Duration // uninstrumented
	TraceWrite    time.Duration // path tracing + raw varint encoding
	WPPBuild      time.Duration // path tracing + online SEQUITUR
	TraceOverhead float64       // TraceWrite / Plain
	WPPOverhead   float64       // WPPBuild / Plain
	WPPvsTrace    float64       // WPPBuild / TraceWrite
}

// E3 measures collection overhead. reps > 1 reports the fastest of reps
// runs of each configuration.
func E3(scale Scale, reps int) ([]E3Row, *Table, error) {
	if reps < 1 {
		reps = 1
	}
	var rows []E3Row
	tbl := &Table{
		ID:     "E3",
		Title:  "trace collection overhead (paper's instrumentation cost)",
		Header: []string{"workload", "plain", "trace-write", "wpp-build", "trace/plain", "wpp/plain", "wpp/trace"},
		Notes:  []string{"best of " + fmt.Sprint(reps) + " runs per configuration"},
	}
	for _, w := range workloads.All {
		prog, err := wlc.Compile(w.Source)
		if err != nil {
			return nil, nil, err
		}
		arg := scale.Arg(w)

		best, err := bestOf(reps, func() error {
			m, err := interp.New(prog, interp.Config{})
			if err != nil {
				return err
			}
			_, err = m.Run("main", arg)
			return err
		}, func() error {
			var sink discardCounter
			tw, err := trace.NewWriter(&sink)
			if err != nil {
				return err
			}
			m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) {
				if err := tw.Write(e); err != nil {
					panic(err)
				}
			})})
			if err != nil {
				return err
			}
			if _, err := m.Run("main", arg); err != nil {
				return err
			}
			return tw.Flush()
		}, func() error {
			g := sequitur.New()
			m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) {
				g.Append(uint64(e))
			})})
			if err != nil {
				return err
			}
			_, err = m.Run("main", arg)
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		plain, traceWrite, wppBuild := best[0], best[1], best[2]

		r := E3Row{
			Name: w.Name, Plain: plain, TraceWrite: traceWrite, WPPBuild: wppBuild,
			TraceOverhead: dratio(traceWrite, plain),
			WPPOverhead:   dratio(wppBuild, plain),
			WPPvsTrace:    dratio(wppBuild, traceWrite),
		}
		rows = append(rows, r)
		tbl.Rows = append(tbl.Rows, []string{
			r.Name, r.Plain.String(), r.TraceWrite.String(), r.WPPBuild.String(),
			fmt.Sprintf("%.2f", r.TraceOverhead), fmt.Sprintf("%.2f", r.WPPOverhead), fmt.Sprintf("%.2f", r.WPPvsTrace),
		})
	}
	return rows, tbl, nil
}

func dratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

type discardCounter struct{ n int64 }

func (d *discardCounter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

// ---------------------------------------------------------------------
// E4: WPP growth vs trace length (the paper's size-vs-length figure).

// E4Point is one sample of the growth curve.
type E4Point struct {
	Events     uint64
	Rules      int
	RHSSymbols int
}

// E4Series is the growth curve for one workload.
type E4Series struct {
	Name   string
	Points []E4Point
}

// E4 samples grammar size at numSamples evenly spaced points of each
// selected workload's event stream.
func E4(scale Scale, names []string, numSamples int) ([]E4Series, *Table, error) {
	if numSamples < 2 {
		numSamples = 2
	}
	var series []E4Series
	tbl := &Table{
		ID:     "E4",
		Title:  "WPP grammar growth vs trace length (paper's size figure)",
		Header: []string{"workload", "events", "rules", "rhs symbols", "symbols/event"},
	}
	for _, name := range names {
		c, err := CaptureWorkload(name, scale)
		if err != nil {
			return nil, nil, err
		}
		total := uint64(len(c.Events))
		if total == 0 {
			continue
		}
		step := max(total/uint64(numSamples), 1)
		g := sequitur.New()
		var pts []E4Point
		for i, e := range c.Events {
			g.Append(uint64(e))
			if count := uint64(i + 1); count%step == 0 || count == total {
				st := g.Stats()
				pts = append(pts, E4Point{Events: count, Rules: st.Rules, RHSSymbols: st.RHSSymbols})
			}
		}
		series = append(series, E4Series{Name: c.Workload.Name, Points: pts})
		for _, p := range pts {
			tbl.Rows = append(tbl.Rows, []string{
				c.Workload.Name, fmt.Sprint(p.Events), fmt.Sprint(p.Rules), fmt.Sprint(p.RHSSymbols),
				fmt.Sprintf("%.4f", float64(p.RHSSymbols)/float64(p.Events)),
			})
		}
	}
	return series, tbl, nil
}
