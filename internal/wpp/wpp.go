// Package wpp implements the whole-program-path representation: a
// SEQUITUR grammar over the stream of Ball–Larus path events emitted by an
// instrumented execution (Larus, "Whole Program Paths", PLDI 1999).
//
// A WPP is built online: the Builder is handed to the interpreter as its
// event sink, feeds each event to SEQUITUR as it arrives, and tracks the
// cost (IR instructions) of each distinct acyclic path so analyses can
// weight the compressed trace without rerunning the program. The finished
// WPP is a self-contained artifact: it can be persisted, reloaded, walked
// (full expansion), and analyzed in compressed form (package hotpath).
package wpp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/bl"
	"repro/internal/sequitur"
	"repro/internal/trace"
)

// FuncInfo describes one traced function.
type FuncInfo struct {
	Name     string
	NumPaths uint64
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
	// idx is the lazily built positional index (see query.go).
	idx *index
}

// MonoBuilder accumulates a WPP online. Its Add method is an interp.Config
// Sink.
type MonoBuilder struct {
	grammar *sequitur.Grammar
	funcs   []FuncInfo
	nums    []*bl.Numbering
	events  uint64
	costs   map[trace.Event]uint64
	metrics BuildMetrics
	// lazyCosts records that batches were ingested without per-event cost
	// tracking, so Finish derives the cost table from the grammar.
	lazyCosts bool
}

// SetMetrics installs observability hooks (see BuildMetrics); nil
// disables instrumentation. Call before feeding events.
func (b *MonoBuilder) SetMetrics(m *BuildMetrics) {
	b.metrics = m.orNoop()
	b.grammar.SetMetrics(b.metrics.Grammar)
}

// NewMonoBuilder returns a builder for a program whose functions have the
// given Ball–Larus numberings (indexed by function ID, as produced by
// interp.Machine.Numberings). Numberings supply per-path instruction
// costs; a nil slice makes every path cost 1.
func NewMonoBuilder(names []string, nums []*bl.Numbering) *MonoBuilder {
	funcs := make([]FuncInfo, len(names))
	for i, n := range names {
		funcs[i] = FuncInfo{Name: n}
		if nums != nil {
			funcs[i].NumPaths = nums[i].NumPaths
		}
	}
	return &MonoBuilder{
		grammar: sequitur.New(),
		funcs:   funcs,
		nums:    nums,
		costs:   map[trace.Event]uint64{},
	}
}

// Add feeds one path event to the grammar.
func (b *MonoBuilder) Add(e trace.Event) {
	b.grammar.Append(uint64(e))
	b.events++
	b.metrics.EventsIngested.Inc()
	if _, seen := b.costs[e]; !seen {
		cost := uint64(1)
		if b.nums != nil {
			w, err := b.nums[e.Func()].PathWeight(e.Path())
			if err != nil {
				// An event the numbering cannot regenerate indicates a
				// corrupted trace; surface loudly rather than mis-cost.
				panic(fmt.Sprintf("wpp: invalid event %v: %v", e, err))
			}
			cost = uint64(w)
		}
		b.costs[e] = cost
	}
}

// AddBatch feeds a slice of path events to the grammar through the
// batched SEQUITUR fast path. It is equivalent to calling Add for each
// element: the grammar evolves identically, and the cost of each
// distinct path — tracked per event by Add — is instead derived from
// the grammar's terminals at Finish, which prices exactly the same set
// of distinct events. Invalid events surface at Finish rather than at
// ingestion. Add and AddBatch may be mixed freely.
func (b *MonoBuilder) AddBatch(es []trace.Event) {
	if len(es) == 0 {
		return
	}
	sequitur.AppendBatchOf(b.grammar, es)
	b.events += uint64(len(es))
	b.metrics.EventsIngested.Add(uint64(len(es)))
	b.lazyCosts = true
}

// fillCosts prices every distinct terminal of the snapshots that has no
// cost entry yet. The set of terminal values across a grammar's rules is
// exactly the set of distinct values in the stream it generates, so this
// reconstructs what per-event tracking would have recorded, in time
// proportional to the grammar rather than the trace.
func fillCosts(costs map[trace.Event]uint64, nums []*bl.Numbering, snaps ...*sequitur.Snapshot) {
	for _, sn := range snaps {
		for _, rhs := range sn.Rules {
			for _, s := range rhs {
				if s.IsRule() {
					continue
				}
				e := trace.Event(s.Value)
				if _, seen := costs[e]; seen {
					continue
				}
				cost := uint64(1)
				if nums != nil {
					w, err := nums[e.Func()].PathWeight(e.Path())
					if err != nil {
						// An event the numbering cannot regenerate
						// indicates a corrupted trace; surface loudly
						// rather than mis-cost.
						panic(fmt.Sprintf("wpp: invalid event %v: %v", e, err))
					}
					cost = uint64(w)
				}
				costs[e] = cost
			}
		}
	}
}

// Events reports the number of events consumed so far.
func (b *MonoBuilder) Events() uint64 { return b.events }

// GrammarStats exposes the live grammar size, for growth-curve
// experiments that sample the builder mid-stream.
func (b *MonoBuilder) GrammarStats() sequitur.Stats { return b.grammar.Stats() }

// Finish seals the WPP. instructions is the total executed instruction
// count (interp.Stats.Instructions).
func (b *MonoBuilder) Finish(instructions uint64) *WPP {
	snap := b.grammar.Snapshot()
	if b.lazyCosts {
		fillCosts(b.costs, b.nums, snap)
	}
	return &WPP{
		Funcs:        b.funcs,
		Grammar:      snap,
		Events:       b.events,
		Instructions: instructions,
		costs:        b.costs,
	}
}

// SnapshotWPP captures the still-growing build as a queryable WPP
// without sealing it: the grammar is snapshotted at its current state,
// the cost table is copied (and, after batched ingestion, derived from
// the snapshot's terminals exactly as Finish would derive it), and the
// builder continues unaffected. Because the executed-instruction total is
// not known until the trace ends, the snapshot's Instructions is set to
// TotalPathCost — the cost-weighted trace length — so hot-subpath
// fractions stay well defined mid-stream. The caller must serialize
// SnapshotWPP against Add/AddBatch; the returned WPP shares nothing
// mutable with the builder.
func (b *MonoBuilder) SnapshotWPP() *WPP {
	snap := b.grammar.Snapshot()
	costs := make(map[trace.Event]uint64, len(b.costs))
	for e, c := range b.costs {
		costs[e] = c
	}
	if b.lazyCosts {
		fillCosts(costs, b.nums, snap)
	}
	w := &WPP{
		Funcs:   b.funcs,
		Grammar: snap,
		Events:  b.events,
		costs:   costs,
	}
	w.Instructions = w.TotalPathCost()
	return w
}

// TotalPathCost is the cost-weighted length of the trace: the sum over
// every event of its acyclic path's cost. It is computed bottom-up on the
// grammar with memoized per-rule totals, in time proportional to the
// grammar rather than the trace. For cost-1 tables (builds from raw
// traces) it equals Events.
func (w *WPP) TotalPathCost() uint64 {
	n := len(w.Grammar.Rules)
	if n == 0 {
		return 0
	}
	memo := make([]uint64, n)
	done := make([]bool, n)
	var visit func(int) uint64
	visit = func(i int) uint64 {
		if done[i] {
			return memo[i]
		}
		var total uint64
		for _, s := range w.Grammar.Rules[i] {
			if s.IsRule() {
				total += visit(int(s.Rule))
			} else {
				total += w.costs[trace.Event(s.Value)]
			}
		}
		memo[i] = total
		done[i] = true
		return total
	}
	return visit(0)
}

// PathCost returns the instruction cost of one event's acyclic path.
// Unknown events cost 0.
func (w *WPP) PathCost(e trace.Event) uint64 { return w.costs[e] }

// DistinctPaths reports how many distinct (function, path) pairs were
// executed.
func (w *WPP) DistinctPaths() int { return len(w.costs) }

// Walk yields the full event trace in order, stopping early if yield
// returns false.
func (w *WPP) Walk(yield func(trace.Event) bool) {
	if len(w.Grammar.Rules) == 0 {
		return
	}
	w.Grammar.Expand(0, func(v uint64) bool { return yield(trace.Event(v)) })
}

// Stats summarizes WPP size.
type Stats struct {
	Events        uint64
	Rules         int
	RHSSymbols    int
	DistinctPaths int
	// EncodedBytes is the on-disk size of the whole artifact.
	EncodedBytes int64
	// GrammarBytes is the on-disk size of the grammar alone.
	GrammarBytes int64
	// RawTraceBytes is the size of the uncompressed varint trace the
	// grammar replaces.
	RawTraceBytes int64
}

// Stats computes size statistics. It expands nothing; raw trace size is
// reconstructed from the grammar by weighting each rule's terminals with
// rule use counts.
func (w *WPP) Stats() Stats {
	st := Stats{
		Events:        w.Events,
		Rules:         len(w.Grammar.Rules),
		DistinctPaths: len(w.costs),
		GrammarBytes:  w.Grammar.EncodedSize(),
		EncodedBytes:  w.EncodedSize(),
	}
	for _, rhs := range w.Grammar.Rules {
		st.RHSSymbols += len(rhs)
	}
	st.RawTraceBytes = w.rawTraceBytes()
	return st
}

// rawTraceBytes computes the varint-encoded size of the full expansion
// without materializing it: bytes(rule) summed bottom-up with use counts.
func (w *WPP) rawTraceBytes() int64 {
	return 4 + snapshotRawBytes(w.Grammar) // trace magic + payload
}

// snapshotRawBytes is the varint byte size of a snapshot's full expansion,
// computed bottom-up with memoization rather than by expanding.
func snapshotRawBytes(sn *sequitur.Snapshot) int64 {
	n := len(sn.Rules)
	if n == 0 {
		return 0
	}
	memo := make([]int64, n)
	done := make([]bool, n)
	var visit func(int) int64
	visit = func(i int) int64 {
		if done[i] {
			return memo[i]
		}
		var total int64
		for _, s := range sn.Rules[i] {
			if s.IsRule() {
				total += visit(int(s.Rule))
			} else {
				total += int64(uvarintLen(s.Value))
			}
		}
		memo[i] = total
		done[i] = true
		return total
	}
	return visit(0)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Verify checks internal consistency: the grammar is well formed and its
// expansion length equals Events, and every expanded event has a recorded
// cost and an in-range function ID.
func (w *WPP) Verify() error {
	if err := w.Grammar.Validate(); err != nil {
		return err
	}
	lens := w.Grammar.ExpandedLen()
	if len(lens) > 0 && lens[0] != w.Events {
		return fmt.Errorf("wpp: grammar expands to %d events, header says %d", lens[0], w.Events)
	}
	if len(lens) == 0 && w.Events != 0 {
		return fmt.Errorf("wpp: empty grammar but %d events", w.Events)
	}
	var bad error
	w.Walk(func(e trace.Event) bool {
		if int(e.Func()) >= len(w.Funcs) {
			bad = fmt.Errorf("wpp: event %v references unknown function", e)
			return false
		}
		if _, ok := w.costs[e]; !ok {
			bad = fmt.Errorf("wpp: event %v has no recorded cost", e)
			return false
		}
		return true
	})
	return bad
}

// Binary layout (all varints except magic and names):
//
//	magic "WPP1"
//	numFuncs, then per func: nameLen, name bytes, numPaths
//	events, instructions
//	numCosts, then per entry (sorted by event): event, cost
//	grammar snapshot (sequitur encoding)
var wppMagic = [4]byte{'W', 'P', 'P', '1'}

// Encode writes the WPP to w in the encoding Version selects.
func (w *WPP) Encode(out io.Writer) (int64, error) {
	if w.Version >= FormatV2 {
		return w.encodeV2(out)
	}
	bw := bufio.NewWriter(out)
	var written int64
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		m, err := bw.Write(buf[:n])
		written += int64(m)
		return err
	}
	n, err := bw.Write(wppMagic[:])
	written += int64(n)
	if err != nil {
		return written, err
	}
	if err := put(uint64(len(w.Funcs))); err != nil {
		return written, err
	}
	for _, f := range w.Funcs {
		if err := put(uint64(len(f.Name))); err != nil {
			return written, err
		}
		m, err := bw.WriteString(f.Name)
		written += int64(m)
		if err != nil {
			return written, err
		}
		if err := put(f.NumPaths); err != nil {
			return written, err
		}
	}
	if err := put(w.Events); err != nil {
		return written, err
	}
	if err := put(w.Instructions); err != nil {
		return written, err
	}
	if err := put(uint64(len(w.costs))); err != nil {
		return written, err
	}
	events := make([]trace.Event, 0, len(w.costs))
	for e := range w.costs {
		events = append(events, e)
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
	for _, e := range events {
		if err := put(uint64(e)); err != nil {
			return written, err
		}
		if err := put(w.costs[e]); err != nil {
			return written, err
		}
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	gn, err := w.Grammar.Encode(out)
	written += gn
	return written, err
}

// EncodedSize returns the byte size Encode would produce.
func (w *WPP) EncodedSize() int64 {
	if w.Version >= FormatV2 {
		return w.encodedSizeV2()
	}
	n := int64(4)
	n += int64(uvarintLen(uint64(len(w.Funcs))))
	for _, f := range w.Funcs {
		n += int64(uvarintLen(uint64(len(f.Name)))) + int64(len(f.Name)) + int64(uvarintLen(f.NumPaths))
	}
	n += int64(uvarintLen(w.Events)) + int64(uvarintLen(w.Instructions))
	n += int64(uvarintLen(uint64(len(w.costs))))
	for e, c := range w.costs {
		n += int64(uvarintLen(uint64(e))) + int64(uvarintLen(c))
	}
	return n + w.Grammar.EncodedSize()
}
