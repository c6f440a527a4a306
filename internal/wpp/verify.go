package wpp

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/sequitur"
	"repro/internal/trace"
)

// VerifyReport summarizes a verification: what was checked and the
// measured slack against each bounded invariant.
type VerifyReport struct {
	// Kind is "monolithic" or "chunked".
	Kind string
	// Events is the expanded trace length.
	Events uint64
	// Chunks is 1 for a monolithic artifact.
	Chunks int
	// Rules is the total rule count across all grammars.
	Rules int
	// DistinctEvents is the number of distinct (function, path) events.
	DistinctEvents int
	// DupDigrams is the number of duplicate digrams measured across all
	// grammars; DupDigramBound is the maximum the verifier tolerates
	// (SEQUITUR's documented seam slack scales with trace length and
	// chunk count). Only VerifyArtifact measures them.
	DupDigrams, DupDigramBound int
	// BoundedEvents counts distinct events whose path ID was checked
	// against a known per-function NumPaths; UnknownFuncs counts
	// functions with NumPaths == 0 (artifacts built from raw traces do
	// not carry path counts), whose events cannot be bounded.
	BoundedEvents int
	UnknownFuncs  int
}

func (r VerifyReport) String() string {
	return fmt.Sprintf("%s artifact verified: %d events (%d distinct, %d path-ID-bounded), %d chunk(s), %d rules, digram dups %d/%d, %d function(s) without path counts",
		r.Kind, r.Events, r.DistinctEvents, r.BoundedEvents, r.Chunks, r.Rules, r.DupDigrams, r.DupDigramBound, r.UnknownFuncs)
}

// digramDupBound is the tolerated duplicate-digram count: the documented
// SEQUITUR seam slack, a small constant per grammar plus a vanishing
// fraction of the trace (mirroring the bound the grammar's own tests
// enforce).
func digramDupBound(events uint64, grammars int) int {
	return 2*grammars + int(events/50)
}

// check is the one artifact check behind Verify and VerifyArtifact on
// every artifact type, eager or viewed. It runs in grammar time: every
// cost-table entry names a known function and an in-range path ID; each
// chunk, on `workers` goroutines (<=0 means GOMAXPROCS), passes
// Validate, reachability, rule utility and has a cost entry for every
// terminal; then the chunk lengths sum without overflow to the header's
// event count, the chunks' path costs sum without overflow, every chunk
// but the last expands to ChunkSize, and the cost table holds exactly
// the events the grammars yield. The total path cost is not held to the
// header's instruction count, which a daemon seal takes from its client.
// digrams adds the duplicate-digram count, the one costly measure. A
// chunk error is the lowest-indexed failing chunk's.
func check(h *header, src engine.Source, workers int, digrams bool) (VerifyReport, error) {
	n := src.NumChunks()
	rep := VerifyReport{Kind: "monolithic", Events: h.events, Chunks: n, DistinctEvents: len(h.costs)}
	if h.chunked {
		rep.Kind = "chunked"
	}
	dict := sortedCostEvents(h.costs)
	for _, e := range dict {
		if int(e.Func()) >= len(h.funcs) {
			return rep, fmt.Errorf("wpp: event %v references unknown function %d (artifact has %d)", e, e.Func(), len(h.funcs))
		}
		if f := h.funcs[e.Func()]; f.NumPaths > 0 {
			if e.Path() >= f.NumPaths {
				return rep, fmt.Errorf("wpp: event %v: path ID %d outside [0,%d) recorded for %s", e, e.Path(), f.NumPaths, f.Name)
			}
			rep.BoundedEvents++
		}
	}
	for _, f := range h.funcs {
		if f.NumPaths == 0 {
			rep.UnknownFuncs++
		}
	}

	rank := dictRank(dict)
	seen := make([]atomic.Bool, len(dict))
	type facts struct {
		events     uint64
		cost       uint64
		rules      int
		dupDigrams int
	}
	per := make([]facts, n)
	err := engine.EachChunk(src, workers, func(i int, sn *sequitur.Snapshot) error {
		events, cost, err := checkChunk(sn, rank, h.costs, seen)
		if err != nil {
			label := "grammar"
			if h.chunked {
				label = fmt.Sprintf("chunk %d", i)
			}
			return fmt.Errorf("wpp: %s: %w", label, err)
		}
		per[i] = facts{events: events, cost: cost, rules: len(sn.Rules)}
		if digrams {
			per[i].dupDigrams = sn.DigramDuplicates()
		}
		return nil
	})
	if err != nil {
		return rep, err
	}

	var total, cost, carry uint64
	for _, f := range per {
		if total, err = engine.AddLength(total, f.events); err != nil {
			return rep, fmt.Errorf("wpp: %w", err)
		}
		if cost, carry = bits.Add64(cost, f.cost, 0); carry != 0 {
			return rep, fmt.Errorf("wpp: total path cost overflows 64 bits")
		}
		rep.Rules += f.rules
		rep.DupDigrams += f.dupDigrams
	}
	if total != h.events {
		what := "grammar expands"
		if h.chunked {
			what = "chunks expand"
		}
		return rep, fmt.Errorf("wpp: %s to %d events, header says %d", what, total, h.events)
	}
	if h.chunked {
		if h.chunkSize == 0 {
			return rep, fmt.Errorf("wpp: chunked artifact declares chunk size 0")
		}
		for i, f := range per {
			if i < n-1 && f.events != h.chunkSize {
				return rep, fmt.Errorf("wpp: chunk %d expands to %d events, declared chunk size is %d", i, f.events, h.chunkSize)
			}
			if i == n-1 && (f.events == 0 || f.events > h.chunkSize) {
				return rep, fmt.Errorf("wpp: final chunk %d expands to %d events, want 1..%d", i, f.events, h.chunkSize)
			}
		}
	}
	if digrams {
		rep.DupDigramBound = digramDupBound(h.events, n)
		if rep.DupDigrams > rep.DupDigramBound {
			return rep, fmt.Errorf("wpp: %d duplicate digrams across %d grammar(s), tolerated seam slack is %d", rep.DupDigrams, n, rep.DupDigramBound)
		}
	}
	yielded := 0
	for i := range seen {
		if seen[i].Load() {
			yielded++
		}
	}
	if yielded != len(dict) {
		return rep, fmt.Errorf("wpp: cost table has %d entries but the trace contains %d distinct events", len(dict), yielded)
	}
	return rep, nil
}

// checkChunk runs check's per-chunk part on one grammar and returns its
// expansion length and path cost, the sum of its events' costs. It marks
// each terminal's dictionary rank in seen.
func checkChunk(sn *sequitur.Snapshot, rank func(uint64) (uint64, bool), costs map[trace.Event]uint64, seen []atomic.Bool) (events, cost uint64, err error) {
	lens, err := sn.CheckedLen()
	if err != nil {
		return 0, 0, err
	}
	// In an acyclic grammar, rule utility implies reachability: among the
	// unreachable rules, one that none of the others references is
	// referenced by no rule at all. So only a utility failure needs the
	// reachability pass, to name the more specific diagnosis.
	for r, uses := range sn.RuleUses()[1:] {
		if uses < 2 {
			if dead := sn.UnreachableRules(); len(dead) > 0 {
				return 0, 0, fmt.Errorf("%d rule(s) unreachable from the start rule (first: %d)", len(dead), dead[0])
			}
			return 0, 0, fmt.Errorf("rule %d referenced %d time(s), rule utility requires 2", r+1, uses)
		}
	}
	for _, rhs := range sn.Rules {
		for _, s := range rhs {
			if s.IsRule() {
				continue
			}
			r, ok := rank(s.Value)
			if !ok {
				return 0, 0, fmt.Errorf("event %v has no recorded cost", trace.Event(s.Value))
			}
			if !seen[r].Load() {
				seen[r].Store(true)
			}
		}
	}
	sums, err := sn.Weigh(func(v uint64) uint64 { return costs[trace.Event(v)] })
	if err != nil {
		return 0, 0, fmt.Errorf("total path cost overflows 64 bits")
	}
	return lens[0], sums[0], nil
}
