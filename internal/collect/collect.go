// Package collect is the one source-to-artifact chain: it runs a
// compiled WL program under path tracing and compresses the event
// stream online into a whole program path. wppbuild, the store's lazy
// builds and the public facade all build through Run.
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

// Result is the outcome of one traced run.
type Result struct {
	Artifact   wpp.Artifact
	Report     *wpp.BuildReport
	Value      int64 // main's return value
	Stats      interp.Stats
	Numberings []*bl.Numbering
}

// Run runs prog's main(args...) under path tracing. The machine streams
// events a batch at a time into the builder newBuilder makes from its
// numberings, which runs before the first event, and the artifact is
// sealed when main returns. cfg supplies the run's output and
// instruction budget; its Mode and Sink are set here. If the run fails,
// the builder is drained so its workers do not leak.
func Run(prog *wlc.Program, args []int64, cfg interp.Config, newBuilder BuilderFactory) (*Result, error) {
	// The builder needs the machine's numberings, so it is constructed
	// after the machine and bound into the sink then.
	sink := &trace.LateSink{}
	cfg.Mode, cfg.Sink = interp.PathTrace, sink
	m, err := interp.New(prog, cfg)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(prog.Funcs))
	for i, fn := range prog.Funcs {
		names[i] = fn.Name
	}
	b := newBuilder(names, m.Numberings())
	sink.Dst = b
	v, err := m.Run("main", args...)
	if err != nil {
		b.Finish(0)
		return nil, err
	}
	a := b.Finish(m.Stats().Instructions)
	return &Result{Artifact: a, Report: b.Report(), Value: v, Stats: m.Stats(), Numberings: m.Numberings()}, nil
}
