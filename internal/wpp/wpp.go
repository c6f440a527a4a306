// Package wpp implements the whole-program-path representation: a
// SEQUITUR grammar over the stream of Ball–Larus path events emitted by an
// instrumented execution (Larus, "Whole Program Paths", PLDI 1999).
//
// A WPP is built online: the Builder is handed to the interpreter as its
// event sink and feeds events to SEQUITUR as they arrive. When the WPP
// is sealed, the cost (IR instructions) of each distinct acyclic path is
// read off the grammar's terminals, so analyses can weight the
// compressed trace without rerunning the program. The finished
// WPP is a self-contained artifact: it can be persisted, reloaded, walked
// (full expansion), and analyzed in compressed form (package hotpath).
package wpp

import (
	"fmt"
	"io"

	"repro/internal/bl"
	"repro/internal/sequitur"
	"repro/internal/trace"
)

// FuncInfo describes one traced function.
type FuncInfo struct {
	Name     string
	NumPaths uint64
}

// FuncName returns function id's name in funcs, or "f<id>" when the ID
// is out of range or the name is empty.
func FuncName(funcs []FuncInfo, id uint32) string {
	if int(id) < len(funcs) && funcs[id].Name != "" {
		return funcs[id].Name
	}
	return fmt.Sprintf("f%d", id)
}

// EventName renders an event as "func:pathID", the function named as by
// FuncName.
func EventName(funcs []FuncInfo, e trace.Event) string {
	return fmt.Sprintf("%s:%d", FuncName(funcs, e.Func()), e.Path())
}

// WPP is a finished whole program path.
type WPP struct {
	// Funcs is indexed by function ID.
	Funcs []FuncInfo
	// Grammar is the SEQUITUR grammar generating the event trace.
	Grammar *sequitur.Snapshot
	// Events is the trace length (number of acyclic path events).
	Events uint64
	// Instructions is the total number of IR instructions the traced
	// execution ran.
	Instructions uint64
	// Version selects the on-disk encoding (FormatV1 or FormatV2; zero
	// encodes as v1). Decoding sets it to the format that was read, so
	// the canonical re-encoding reproduces the input bytes.
	Version uint8
	// costs maps each distinct event to the instruction count of its
	// acyclic path.
	costs map[trace.Event]uint64
}

// funcTable is the function table a builder records: one entry per
// name, with its Ball–Larus path count when numberings are supplied.
func funcTable(names []string, nums []*bl.Numbering) []FuncInfo {
	funcs := make([]FuncInfo, len(names))
	for i, n := range names {
		funcs[i] = FuncInfo{Name: n}
		if nums != nil {
			funcs[i].NumPaths = nums[i].NumPaths
		}
	}
	return funcs
}

// sealedFuncs is the function table an artifact carries: funcs, or for
// a build given no names, f0..f<max> over the highest function ID the
// cost table prices ([f0] for an empty trace).
func sealedFuncs(funcs []FuncInfo, costs map[trace.Event]uint64) []FuncInfo {
	if len(funcs) > 0 {
		return funcs
	}
	var maxFn uint32
	for e := range costs {
		maxFn = max(maxFn, e.Func())
	}
	funcs = make([]FuncInfo, maxFn+1)
	for i := range funcs {
		funcs[i].Name = fmt.Sprintf("f%d", i)
	}
	return funcs
}

// pathCost prices one event: the instruction count of its acyclic path
// under nums, or 1 without numberings. An event the numbering cannot
// regenerate indicates a corrupted trace; it panics rather than
// mis-cost.
func pathCost(nums []*bl.Numbering, e trace.Event) uint64 {
	if nums == nil {
		return 1
	}
	w, err := nums[e.Func()].PathWeight(e.Path())
	if err != nil {
		panic(fmt.Sprintf("wpp: invalid event %v: %v", e, err))
	}
	return uint64(w)
}

// fillCosts returns a fresh cost table pricing every distinct terminal
// of the snapshots. The set of terminal values across a grammar's rules
// is exactly the set of distinct values in the stream it generates, so
// this prices every executed path once, in time proportional to the
// grammar rather than the trace.
func fillCosts(nums []*bl.Numbering, snaps ...*sequitur.Snapshot) map[trace.Event]uint64 {
	costs := map[trace.Event]uint64{}
	for _, sn := range snaps {
		for _, rhs := range sn.Rules {
			for _, s := range rhs {
				if s.IsRule() {
					continue
				}
				e := trace.Event(s.Value)
				if _, seen := costs[e]; !seen {
					costs[e] = pathCost(nums, e)
				}
			}
		}
	}
	return costs
}

// TotalPathCost is the cost-weighted length of the trace: the sum over
// every event of its acyclic path's cost, weighed on the grammar
// (sequitur.Snapshot.Weigh) in time proportional to the grammar rather
// than the trace. For cost-1 tables (builds from raw traces) it equals
// Events.
func (w *WPP) TotalPathCost() uint64 {
	sums, _ := w.Grammar.Weigh(func(v uint64) uint64 { return w.costs[trace.Event(v)] })
	if len(sums) == 0 {
		return 0
	}
	return sums[0]
}

// PathCost returns the instruction cost of one event's acyclic path.
// Unknown events cost 0.
func (w *WPP) PathCost(e trace.Event) uint64 { return w.costs[e] }

// DistinctPaths reports how many distinct (function, path) pairs were
// executed.
func (w *WPP) DistinctPaths() int { return len(w.costs) }

// artifact is w as the shared implementation sees it: one chunk.
func (w *WPP) artifact() *artifact {
	return &artifact{
		header: header{version: w.Version, funcs: w.Funcs, events: w.Events, instructions: w.Instructions, costs: w.costs},
		chunks: []*sequitur.Snapshot{w.Grammar},
	}
}

// NumChunks is 1: a monolithic WPP is the one-chunk case of the chunked
// artifact. Together with Chunk it makes the WPP an engine.Source.
func (w *WPP) NumChunks() int { return 1 }

// Chunk returns the grammar, the only chunk (i must be 0).
func (w *WPP) Chunk(i int) (*sequitur.Snapshot, error) {
	if i != 0 {
		return nil, fmt.Errorf("wpp: chunk %d of a monolithic WPP", i)
	}
	return w.Grammar, nil
}

// Walk yields the full event trace in order, stopping early if yield
// returns false.
func (w *WPP) Walk(yield func(trace.Event) bool) { walk(w, yield) }

// Stats summarizes an artifact's size, monolithic or chunked.
type Stats struct {
	Events uint64
	// Chunks is the number of chunk grammars (1 for a monolithic
	// artifact); ChunkSize is the chunked container's events per chunk
	// (0 for a monolithic artifact).
	Chunks    int
	ChunkSize uint64
	// Rules and RHSSymbols are totals across all chunk grammars.
	Rules         int
	RHSSymbols    int
	DistinctPaths int
	// PeakLiveRHS is the largest number of live grammar symbols during a
	// chunked construction (0 for a monolithic artifact).
	PeakLiveRHS int
	// EncodedBytes is the on-disk size of the whole artifact.
	EncodedBytes int64
	// GrammarBytes is the on-disk size of the grammars alone.
	GrammarBytes int64
	// RawTraceBytes is the size of the uncompressed varint trace the
	// grammars replace.
	RawTraceBytes int64
}

// Stats computes size statistics. It expands nothing; raw trace size is
// reconstructed from the grammar by weighting each rule's terminals with
// rule use counts.
func (w *WPP) Stats() Stats { return w.artifact().stats() }

// Verify checks the artifact in grammar time, without expanding the
// trace: the grammar is a well-formed SEQUITUR grammar whose expansion
// is Events long, and the cost table holds exactly the events it yields,
// each naming a known function and an in-range path ID. workers sizes
// the chunk pool (<=0 means GOMAXPROCS); a WPP has one chunk.
func (w *WPP) Verify(workers int) error {
	_, err := w.artifact().verify(workers, false)
	return err
}

// VerifyArtifact is Verify plus the duplicate-digram count against
// SEQUITUR's seam slack, and reports what was checked.
func (w *WPP) VerifyArtifact(workers int) (VerifyReport, error) {
	return w.artifact().verify(workers, true)
}

// DistinctEvents lists the cost table's events in ascending order: on a
// verified artifact, exactly the distinct events of the trace.
func (w *WPP) DistinctEvents() []trace.Event { return sortedCostEvents(w.costs) }

// Encode writes the WPP to out in the encoding Version selects.
func (w *WPP) Encode(out io.Writer) (int64, error) { return w.artifact().encode(out) }

// EncodedSize returns the byte size Encode would produce.
func (w *WPP) EncodedSize() int64 { return w.artifact().encodedSize() }
