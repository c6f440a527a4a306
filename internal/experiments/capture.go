package experiments

import (
	"fmt"

	"repro/internal/bl"
	"repro/internal/collect"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
)

// Capture is one traced workload run reduced to what a replay client
// needs: the raw event stream and the instruction total, plus the
// program's function table and numberings for local reference builds.
type Capture struct {
	Workload     workloads.Workload
	Names        []string
	Nums         []*bl.Numbering
	Events       []trace.Event
	Instructions uint64
	Result       int64
}

// CaptureWorkload runs one bundled workload at the given scale under
// path tracing and returns the captured stream. It is the load
// generator's feed: wppload and the serve test suites replay these
// events over HTTP and compare the daemon's artifact to a local build
// of the same capture.
func CaptureWorkload(name string, scale Scale) (*Capture, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, err
	}
	_, t, err := capture(w, scale, interp.PathTrace)
	if err != nil {
		return nil, err
	}
	return &Capture{Workload: w, Names: t.Names, Nums: t.Numberings, Events: t.Events,
		Instructions: t.Stats.Instructions, Result: t.Value}, nil
}

// capture compiles w and runs it at the given scale traced in mode
// (BlockTrace or PathTrace) through collect.Capture: the experiments'
// one traced-run chain.
func capture(w workloads.Workload, scale Scale, mode interp.Mode) (*wlc.Program, *collect.Trace, error) {
	prog, err := wlc.Compile(w.Source)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	t, err := collect.Capture(prog, []int64{scale.Arg(w)}, interp.Config{}, mode)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return prog, t, nil
}
