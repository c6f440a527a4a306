// Package wpp is the public API of the whole-program-paths library, a Go
// reproduction of James R. Larus, "Whole Program Paths", PLDI 1999.
//
// The pipeline it exposes:
//
//  1. Compile a WL program (the instrumentation substrate standing in for
//     the paper's binary rewriting).
//  2. Profile an execution: the interpreter emits one event per completed
//     Ball–Larus acyclic path, and the events stream into an online
//     SEQUITUR grammar — the whole program path.
//  3. Analyze the WPP in compressed form: sizes, full-trace walks, and
//     the paper's minimal-hot-subpath search.
//
// Quick start:
//
//	prog, err := wpp.Compile(source)
//	profile, err := prog.Profile(1000)       // run main(1000) traced
//	fmt.Println(profile.Size())              // grammar vs raw trace
//	hot, err := profile.HotSubpaths(wpp.HotOptions{MinLen: 4, MaxLen: 16, Threshold: 0.01})
package wpp

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/bl"
	"repro/internal/calltree"
	"repro/internal/hotpath"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	iwpp "repro/internal/wpp"
)

// Program is a compiled WL program ready to run or profile.
type Program struct {
	prog  *wlc.Program
	names []string
}

// Compile parses, checks, and lowers WL source text.
func Compile(source string) (*Program, error) {
	return CompileWithOptions(source, CompileOptions{})
}

// CompileOptions tunes compilation.
type CompileOptions struct {
	// Optimize enables constant folding and constant-branch elimination.
	// Optimized builds have different CFGs, and therefore different path
	// numberings and traces, than plain builds — profiles are comparable
	// only between identical builds.
	Optimize bool
}

// CompileWithOptions parses, checks, optionally optimizes, and lowers WL
// source text.
func CompileWithOptions(source string, opts CompileOptions) (*Program, error) {
	p, err := wlc.CompileWithOptions(source, wlc.Options{ConstFold: opts.Optimize})
	if err != nil {
		return nil, err
	}
	names := make([]string, len(p.Funcs))
	for i, f := range p.Funcs {
		names[i] = f.Name
	}
	return &Program{prog: p, names: names}, nil
}

// Functions returns the program's function names, indexed by function ID.
func (p *Program) Functions() []string { return append([]string(nil), p.names...) }

// Disassemble renders the compiled IR, for inspection.
func (p *Program) Disassemble() string { return p.prog.Disassemble() }

// RunStats describes one execution.
type RunStats struct {
	Instructions   uint64
	PathEvents     uint64
	Calls          uint64
	BlocksExecuted uint64
	Duration       time.Duration
}

// RunOption adjusts an execution.
type RunOption func(*runConfig)

type runConfig struct {
	stdout    io.Writer
	maxInstrs uint64
}

// WithStdout directs the program's print output to w (default: discard).
func WithStdout(w io.Writer) RunOption {
	return func(c *runConfig) { c.stdout = w }
}

// WithMaxInstrs aborts runs that exceed the given instruction budget.
func WithMaxInstrs(n uint64) RunOption {
	return func(c *runConfig) { c.maxInstrs = n }
}

// Run executes main(args...) without instrumentation.
func (p *Program) Run(args []int64, opts ...RunOption) (int64, RunStats, error) {
	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	m, err := interp.New(p.prog, interp.Config{Stdout: rc.stdout, MaxInstrs: rc.maxInstrs})
	if err != nil {
		return 0, RunStats{}, err
	}
	start := time.Now()
	res, err := m.Run("main", args...)
	if err != nil {
		return 0, RunStats{}, err
	}
	return res, runStats(m.Stats(), time.Since(start)), nil
}

func runStats(s interp.Stats, d time.Duration) RunStats {
	return RunStats{
		Instructions:   s.Instructions,
		PathEvents:     s.Events,
		Calls:          s.Calls,
		BlocksExecuted: s.BlocksExecuted,
		Duration:       d,
	}
}

// Profile is a finished whole program path together with everything
// needed to interpret it: the Ball–Larus numberings that map path IDs
// back to basic-block sequences.
type Profile struct {
	// Result is the traced run's return value.
	Result int64
	// Stats describes the traced run.
	Stats RunStats

	wpp   *iwpp.WPP
	nums  []*bl.Numbering
	names []string
	prog  *wlc.Program
}

// profileWith runs main(args...) under path tracing, streaming events
// through the interpreter's Sink into the builder iwpp.New selects for
// bopts, and seals the artifact. It is the single traced-execution path
// behind Profile and ProfileChunked.
func (p *Program) profileWith(args []int64, bopts iwpp.BuildOptions, rc runConfig) (iwpp.Artifact, *iwpp.BuildReport, int64, RunStats, []*bl.Numbering, error) {
	// The builder needs the machine's numberings, so it is constructed
	// after the machine; the SinkFunc closure late-binds it.
	var b iwpp.Builder
	m, err := interp.New(p.prog, interp.Config{
		Mode:      interp.PathTrace,
		Sink:      trace.SinkFunc(func(e trace.Event) { b.Add(e) }),
		Stdout:    rc.stdout,
		MaxInstrs: rc.maxInstrs,
	})
	if err != nil {
		return nil, nil, 0, RunStats{}, nil, err
	}
	b = iwpp.New(p.names, m.Numberings(), bopts)
	start := time.Now()
	res, err := m.Run("main", args...)
	if err != nil {
		// Drain the pipeline so worker goroutines do not leak.
		b.Finish(0)
		return nil, nil, 0, RunStats{}, nil, err
	}
	art := b.Finish(m.Stats().Instructions)
	return art, b.Report(), res, runStats(m.Stats(), time.Since(start)), m.Numberings(), nil
}

// Profile runs main(args...) under path tracing, compressing the event
// stream online into a whole program path.
func (p *Program) Profile(args []int64, opts ...RunOption) (*Profile, error) {
	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	art, _, res, stats, nums, err := p.profileWith(args, iwpp.BuildOptions{}, rc)
	if err != nil {
		return nil, err
	}
	return &Profile{
		Result: res,
		Stats:  stats,
		wpp:    art.(*iwpp.WPP),
		nums:   nums,
		names:  p.names,
		prog:   p.prog,
	}, nil
}

// Size summarizes the WPP against the trace it replaces.
type Size struct {
	// Events is the trace length in acyclic-path events.
	Events uint64
	// DistinctPaths is the number of distinct (function, path) pairs.
	DistinctPaths int
	// Rules and RHSSymbols measure the SEQUITUR grammar.
	Rules, RHSSymbols int
	// WPPBytes is the encoded size of the whole artifact; GrammarBytes of
	// the grammar alone; RawTraceBytes of the uncompressed trace.
	WPPBytes, GrammarBytes, RawTraceBytes int64
}

// Factor is the compression factor raw/WPP.
func (s Size) Factor() float64 {
	if s.WPPBytes == 0 {
		return 0
	}
	return float64(s.RawTraceBytes) / float64(s.WPPBytes)
}

func (s Size) String() string {
	return fmt.Sprintf("events=%d distinct=%d rules=%d symbols=%d raw=%dB wpp=%dB (%.1fx)",
		s.Events, s.DistinctPaths, s.Rules, s.RHSSymbols, s.RawTraceBytes, s.WPPBytes, s.Factor())
}

// Size reports the profile's size statistics.
func (pr *Profile) Size() Size {
	st := pr.wpp.Stats()
	return Size{
		Events:        st.Events,
		DistinctPaths: st.DistinctPaths,
		Rules:         st.Rules,
		RHSSymbols:    st.RHSSymbols,
		WPPBytes:      st.EncodedBytes,
		GrammarBytes:  st.GrammarBytes,
		RawTraceBytes: st.RawTraceBytes,
	}
}

// Walk yields every acyclic-path event of the trace in order.
func (pr *Profile) Walk(yield func(fn string, pathID uint64) bool) {
	pr.wpp.Walk(func(e trace.Event) bool {
		return yield(pr.names[e.Func()], e.Path())
	})
}

// PathBlocks returns the basic-block names of one acyclic path.
func (pr *Profile) PathBlocks(fn string, pathID uint64) ([]string, error) {
	for i, name := range pr.names {
		if name != fn {
			continue
		}
		if pr.nums == nil || pr.nums[i] == nil {
			return nil, fmt.Errorf("wpp: profile has no numbering for %s (loaded from disk?)", fn)
		}
		seq, err := pr.nums[i].Regenerate(pathID)
		if err != nil {
			return nil, err
		}
		blocks := make([]string, len(seq))
		for j, b := range seq {
			blocks[j] = pr.nums[i].Graph.Block(b).Name
		}
		return blocks, nil
	}
	return nil, fmt.Errorf("wpp: unknown function %s", fn)
}

// HotOptions configures the hot-subpath search.
type HotOptions struct {
	// MinLen and MaxLen bound subpath length in acyclic paths.
	MinLen, MaxLen int
	// Threshold is the fraction of total executed instructions a subpath
	// must account for, e.g. 0.01 for 1%.
	Threshold float64
}

// HotSubpath is one minimal hot subpath.
type HotSubpath struct {
	// Paths renders each constituent acyclic path as "func:pathID".
	Paths []string
	// Count is the number of occurrences in the trace.
	Count uint64
	// Cost is occurrences times per-occurrence instruction cost.
	Cost uint64
	// Fraction is Cost over total executed instructions.
	Fraction float64
	// LoopDepth is the maximum natural-loop nesting depth of any basic
	// block on the subpath (0 when the profile was loaded from disk and
	// cannot see the program). Hot subpaths overwhelmingly live inside
	// loops; this makes that visible.
	LoopDepth int
}

func (h HotSubpath) String() string {
	return fmt.Sprintf("[%s] x%d cost=%d (%.2f%%)", strings.Join(h.Paths, " "), h.Count, h.Cost, h.Fraction*100)
}

// HotSubpaths finds all minimal hot subpaths, analyzing the compressed
// grammar directly. Results are sorted by cost, hottest first.
func (pr *Profile) HotSubpaths(opts HotOptions) ([]HotSubpath, error) {
	return hotSubpaths(pr.wpp, pr.nums, opts, 0)
}

// hotSubpaths searches src on `workers` goroutines and renders each
// subpath, with its loop depth when the program's numberings are known
// (nums is nil for profiles loaded from disk, and depths stay 0).
func hotSubpaths(src iwpp.Artifact, nums []*bl.Numbering, opts HotOptions, workers int) ([]HotSubpath, error) {
	subs, err := hotpath.Find(src, hotpath.Options{
		MinLen: opts.MinLen, MaxLen: opts.MaxLen, Threshold: opts.Threshold,
	}, workers)
	if err != nil {
		return nil, err
	}
	depths := make([][]int, len(nums))
	for i, num := range nums {
		if depths[i], err = num.Graph.LoopDepths(); err != nil {
			return nil, err
		}
	}
	funcs := src.FuncTable()
	out := make([]HotSubpath, len(subs))
	for i, s := range subs {
		paths := make([]string, len(s.Events))
		depth := 0
		for j, e := range s.Events {
			paths[j] = iwpp.EventName(funcs, e)
			if nums == nil {
				continue
			}
			seq, err := nums[e.Func()].Regenerate(e.Path())
			if err != nil {
				return nil, err
			}
			for _, b := range seq {
				depth = max(depth, depths[e.Func()][b])
			}
		}
		out[i] = HotSubpath{Paths: paths, Count: s.Count, Cost: s.Cost, Fraction: s.Fraction, LoopDepth: depth}
	}
	return out, nil
}

// CallNode is one activation in the reconstructed dynamic call tree.
type CallNode struct {
	Func     string
	Children []*CallNode
}

// CallEdge is a dynamic caller->callee count.
type CallEdge struct {
	Caller, Callee string
	Count          uint64
}

// CallTree reconstructs the execution's dynamic call tree purely from the
// compressed trace plus the program structure — no call events were ever
// recorded. It returns the root activation and the caller->callee counts,
// sorted by count descending. It requires an in-memory profile (loaded
// profiles lack the program).
func (pr *Profile) CallTree() (*CallNode, []CallEdge, error) {
	if pr.nums == nil || pr.prog == nil {
		return nil, nil, fmt.Errorf("wpp: call-tree reconstruction needs the program (profile loaded from disk?)")
	}
	tree, err := calltree.Build(pr.prog, pr.nums, pr.wpp, "main")
	if err != nil {
		return nil, nil, err
	}
	var convert func(n *calltree.Node) *CallNode
	convert = func(n *calltree.Node) *CallNode {
		out := &CallNode{Func: n.Name}
		for _, c := range n.Children {
			out.Children = append(out.Children, convert(c))
		}
		return out
	}
	edges := make([]CallEdge, 0, len(tree.EdgeCounts))
	for e, n := range tree.EdgeCounts {
		edges = append(edges, CallEdge{
			Caller: pr.names[e.Caller],
			Callee: pr.names[e.Callee],
			Count:  n,
		})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Count != edges[j].Count {
			return edges[i].Count > edges[j].Count
		}
		if edges[i].Caller != edges[j].Caller {
			return edges[i].Caller < edges[j].Caller
		}
		return edges[i].Callee < edges[j].Callee
	})
	return convert(tree.Root), edges, nil
}

// SpectrumEntry is one acyclic path whose execution count differs
// between two profiled runs.
type SpectrumEntry struct {
	// Path renders the acyclic path as "func:pathID".
	Path string
	// CountA and CountB are the path's execution counts in the receiver
	// and the argument profile respectively.
	CountA, CountB uint64
	// OnlyA/OnlyB mark paths exercised in exactly one run.
	OnlyA, OnlyB bool
}

// CompareSpectra compares two runs' path-frequency spectra (the
// spectra-based debugging technique of Reps et al. that the paper builds
// on), computed directly on the compressed traces. Both profiles must
// come from the same compiled program. Entries are sorted by absolute
// count difference, largest first; an empty result means the spectra are
// identical.
func (pr *Profile) CompareSpectra(other *Profile) []SpectrumEntry {
	d, _ := hotpath.CompareSpectra(pr.wpp, other.wpp, 1) // in-memory grammars cannot fail
	out := make([]SpectrumEntry, len(d.Entries))
	for i, e := range d.Entries {
		out[i] = SpectrumEntry{
			Path:   iwpp.EventName(pr.wpp.Funcs, e.Event),
			CountA: e.CountA, CountB: e.CountB,
			OnlyA: e.OnlyA, OnlyB: e.OnlyB,
		}
	}
	return out
}

// WriteTo persists the WPP artifact. The numberings are not persisted;
// a profile read back can be walked and analyzed but cannot map path IDs
// to block names without the program.
func (pr *Profile) WriteTo(w io.Writer) (int64, error) {
	return pr.wpp.Encode(w)
}

// ReadProfile loads a monolithic artifact (WPP1 or WPP2) written by
// WriteTo. A chunked artifact is an error; read it with
// ReadChunkedProfile.
func ReadProfile(r io.Reader) (*Profile, error) {
	a, err := readArtifact(r)
	if err != nil {
		return nil, err
	}
	w, ok := a.(*iwpp.WPP)
	if !ok {
		return nil, fmt.Errorf("wpp: artifact is a chunked WPP; read it with ReadChunkedProfile")
	}
	if err := w.Verify(); err != nil {
		return nil, err
	}
	names := make([]string, len(w.Funcs))
	for i, f := range w.Funcs {
		names[i] = f.Name
	}
	return &Profile{
		Stats: RunStats{Instructions: w.Instructions, PathEvents: w.Events},
		wpp:   w,
		names: names,
	}, nil
}

// readArtifact decodes an artifact in any of the four encodings from r.
func readArtifact(r io.Reader) (iwpp.Artifact, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wpp: reading artifact: %w", err)
	}
	return iwpp.Decode(data)
}

// Events reports the trace length.
func (pr *Profile) Events() uint64 { return pr.wpp.Events }

// EventAt returns the i-th trace event (0-based) as (function, pathID),
// answered from the compressed form in O(grammar depth) after a one-time
// O(grammar size) index build — random access into a trace that was never
// materialized.
func (pr *Profile) EventAt(i uint64) (fn string, pathID uint64, err error) {
	e, err := pr.wpp.EventAt(i)
	if err != nil {
		return "", 0, err
	}
	return pr.names[e.Func()], e.Path(), nil
}

// Slice returns the events at positions [from, from+n) as "func:pathID"
// strings, without expanding the rest of the trace.
func (pr *Profile) Slice(from, n uint64) ([]string, error) {
	events, err := pr.wpp.Slice(from, n, nil)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(events))
	for i, e := range events {
		out[i] = iwpp.EventName(pr.wpp.Funcs, e)
	}
	return out, nil
}

// Instructions reports the traced run's instruction count.
func (pr *Profile) Instructions() uint64 { return pr.wpp.Instructions }

// Equal reports whether two profiles have identical traces (same events
// in the same order). It compares expansions, not grammar shapes.
func (pr *Profile) Equal(other *Profile) bool {
	if pr.wpp.Events != other.wpp.Events {
		return false
	}
	i, _, _ := pr.Diff(other)
	return i < 0
}

// Diff walks both traces and returns the index of the first event where
// they differ, with renderings of the two events; it returns -1 if the
// traces are identical.
func (pr *Profile) Diff(other *Profile) (int64, string, string) {
	var a, b []trace.Event
	pr.wpp.Walk(func(e trace.Event) bool { a = append(a, e); return true })
	other.wpp.Walk(func(e trace.Event) bool { b = append(b, e); return true })
	render := func(list []trace.Event, funcs []iwpp.FuncInfo, i int) string {
		if i >= len(list) {
			return "<end of trace>"
		}
		return iwpp.EventName(funcs, list[i])
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return int64(i), render(a, pr.wpp.Funcs, i), render(b, other.wpp.Funcs, i)
		}
	}
	if len(a) != len(b) {
		return int64(n), render(a, pr.wpp.Funcs, n), render(b, other.wpp.Funcs, n)
	}
	return -1, "", ""
}
