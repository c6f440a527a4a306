// Package collect is the one source-to-artifact chain: it runs a
// compiled WL program under tracing and either compresses the event
// stream online into a whole program path (Run) or holds it in memory
// (Capture). wppbuild, the store's lazy builds and the public facade
// build through Run; the experiments capture their streams through
// Capture.
package collect

import (
	"repro/internal/bl"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/wpp"
)

// BuilderFactory makes the Builder for one run from the program's
// function names and Ball–Larus numberings.
type BuilderFactory func(names []string, nums []*bl.Numbering) wpp.Builder

// Build is the factory of a plain wpp.New build with opts.
func Build(opts wpp.BuildOptions) BuilderFactory {
	return func(names []string, nums []*bl.Numbering) wpp.Builder { return wpp.New(names, nums, opts) }
}

// Result is the outcome of one traced run.
type Result struct {
	Artifact   wpp.Artifact
	Report     *wpp.BuildReport
	Value      int64 // main's return value
	Stats      interp.Stats
	Numberings []*bl.Numbering
}

// Trace is one captured run: its event stream in memory, with the
// function names, numberings and statistics a build needs.
type Trace struct {
	Events     []trace.Event
	Names      []string
	Numberings []*bl.Numbering // nil unless the mode is PathTrace
	Stats      interp.Stats
	Value      int64 // main's return value
}

// machine builds the interpreter both entry points run: cfg supplies
// the run's output and instruction budget, and its Mode and Sink are set
// here.
func machine(prog *wlc.Program, cfg interp.Config, mode interp.Mode, sink trace.Sink) (*interp.Machine, error) {
	cfg.Mode, cfg.Sink = mode, sink
	return interp.New(prog, cfg)
}

// Run runs prog's main(args...) under path tracing. The machine streams
// events a batch at a time into the builder newBuilder makes from its
// numberings, which runs before the first event, and the artifact is
// sealed when main returns. If the run fails, the builder is drained so
// its workers do not leak.
func Run(prog *wlc.Program, args []int64, cfg interp.Config, newBuilder BuilderFactory) (*Result, error) {
	// The builder needs the machine's numberings, so it is constructed
	// after the machine and bound into the sink then.
	sink := &trace.LateSink{}
	m, err := machine(prog, cfg, interp.PathTrace, sink)
	if err != nil {
		return nil, err
	}
	b := newBuilder(prog.FuncNames(), m.Numberings())
	sink.Dst = b
	v, err := m.Run("main", args...)
	if err != nil {
		b.Finish(0)
		return nil, err
	}
	a := b.Finish(m.Stats().Instructions)
	return &Result{Artifact: a, Report: b.Report(), Value: v, Stats: m.Stats(), Numberings: m.Numberings()}, nil
}

// Capture runs prog's main(args...) traced in the given mode (BlockTrace
// or PathTrace) into an in-memory buffer, for callers that replay or
// time one stream several ways.
func Capture(prog *wlc.Program, args []int64, cfg interp.Config, mode interp.Mode) (*Trace, error) {
	var buf trace.Buffer
	m, err := machine(prog, cfg, mode, &buf)
	if err != nil {
		return nil, err
	}
	v, err := m.Run("main", args...)
	if err != nil {
		return nil, err
	}
	return &Trace{Events: buf.Events, Names: prog.FuncNames(), Numberings: m.Numberings(), Stats: m.Stats(), Value: v}, nil
}
