package wpp

import (
	"fmt"

	"repro/internal/trace"
)

// VerifyReport summarizes a deep verification of a decoded artifact: what
// was checked and the measured slack against each bounded invariant.
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
	// chunk count).
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

// VerifyArtifact deep-checks the artifact beyond Verify's structural
// pass: the grammar must satisfy SEQUITUR's published invariants (rule
// utility >= 2, full reachability from the start rule, digram
// uniqueness up to the documented seam slack) and every distinct
// event's path ID must lie inside the artifact's recorded per-function
// path count. It is the integrity gate behind wppstats -verify and
// wppbuild -verify.
func (w *WPP) VerifyArtifact() (VerifyReport, error) { return w.artifact().verifyArtifact() }

// VerifyArtifact is WPP.VerifyArtifact for every chunk grammar, plus the
// declared chunk geometry: every chunk except the last expands to
// exactly ChunkSize events.
func (c *ChunkedWPP) VerifyArtifact() (VerifyReport, error) { return c.artifact().verifyArtifact() }

// verifyArtifact is the one deep check behind both VerifyArtifact
// methods; a monolithic artifact is one chunk without a geometry check.
func (a *artifact) verifyArtifact() (VerifyReport, error) {
	rep := VerifyReport{Kind: "monolithic", Events: a.events, Chunks: len(a.chunks)}
	if a.chunked {
		rep.Kind = "chunked"
	}
	if err := verify(&a.header, a, 1); err != nil {
		return rep, err
	}
	if a.chunked && a.chunkSize == 0 {
		return rep, fmt.Errorf("wpp: chunked artifact declares chunk size 0")
	}
	for i, ch := range a.chunks {
		label := "grammar"
		if a.chunked {
			label = fmt.Sprintf("chunk %d", i)
		}
		if err := verifyGrammarInvariants(ch, label); err != nil {
			return rep, err
		}
		rep.Rules += len(ch.Rules)
		rep.DupDigrams += ch.DigramDuplicates()
		if !a.chunked {
			continue
		}
		n := ch.ExpandedLen()[0]
		if i < len(a.chunks)-1 && n != a.chunkSize {
			return rep, fmt.Errorf("wpp: %s expands to %d events, declared chunk size is %d", label, n, a.chunkSize)
		}
		if i == len(a.chunks)-1 && (n == 0 || n > a.chunkSize) {
			return rep, fmt.Errorf("wpp: final %s expands to %d events, want 1..%d", label, n, a.chunkSize)
		}
	}
	rep.DupDigramBound = digramDupBound(a.events, len(a.chunks))
	if rep.DupDigrams > rep.DupDigramBound {
		return rep, fmt.Errorf("wpp: %d duplicate digrams across %d grammar(s), tolerated seam slack is %d", rep.DupDigrams, len(a.chunks), rep.DupDigramBound)
	}
	err := verifyEventBounds(a.funcs, a.costs, func(yield func(trace.Event) bool) { walk(a, yield) }, &rep)
	return rep, err
}

// verifyGrammarInvariants checks the SEQUITUR DAG invariants a snapshot
// produced by this package always satisfies: the start rule is never
// referenced, every other rule is referenced at least twice (rule
// utility), and every rule is reachable from the start rule. Acyclicity
// is already guaranteed by Validate (run by Verify).
func verifyGrammarInvariants(sn interface {
	RuleUses() []int
	UnreachableRules() []int
}, label string) error {
	// Reachability first: a dead rule is also referenced fewer than twice,
	// and "unreachable" is the more specific diagnosis.
	if dead := sn.UnreachableRules(); len(dead) > 0 {
		return fmt.Errorf("wpp: %s: %d rule(s) unreachable from the start rule (first: %d)", label, len(dead), dead[0])
	}
	uses := sn.RuleUses()
	for i, n := range uses {
		if i == 0 && n != 0 {
			return fmt.Errorf("wpp: %s: start rule is referenced %d times", label, n)
		}
		if i > 0 && n < 2 {
			return fmt.Errorf("wpp: %s: rule %d referenced %d time(s), rule utility requires 2", label, i, n)
		}
	}
	return nil
}

// verifyEventBounds walks the expanded trace once, checking that every
// event names a known function, has a recorded cost, and — when the
// function's path count is known — carries a path ID inside
// [0, NumPaths). It also requires the cost table to contain no entries
// the trace never produces.
func verifyEventBounds(funcs []FuncInfo, costs map[trace.Event]uint64, walk func(func(trace.Event) bool), rep *VerifyReport) error {
	distinct := make(map[trace.Event]bool, len(costs))
	var bad error
	walk(func(e trace.Event) bool {
		if distinct[e] {
			return true
		}
		distinct[e] = true
		if int(e.Func()) >= len(funcs) {
			bad = fmt.Errorf("wpp: event %v references function %d, artifact has %d", e, e.Func(), len(funcs))
			return false
		}
		if _, ok := costs[e]; !ok {
			bad = fmt.Errorf("wpp: event %v has no recorded cost", e)
			return false
		}
		if np := funcs[e.Func()].NumPaths; np > 0 {
			if e.Path() >= np {
				bad = fmt.Errorf("wpp: event %v: path ID %d outside [0,%d) recorded for %s",
					e, e.Path(), np, funcs[e.Func()].Name)
				return false
			}
			rep.BoundedEvents++
		}
		return true
	})
	if bad != nil {
		return bad
	}
	rep.DistinctEvents = len(distinct)
	if len(distinct) != len(costs) {
		return fmt.Errorf("wpp: cost table has %d entries but the trace contains %d distinct events", len(costs), len(distinct))
	}
	for _, f := range funcs {
		if f.NumPaths == 0 {
			rep.UnknownFuncs++
		}
	}
	return nil
}
