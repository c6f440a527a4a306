package wpp

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/bl"
	"repro/internal/hotpath"
	"repro/internal/trace"
	iwpp "repro/internal/wpp"
)

// ChunkedOptions configures bounded-memory, parallel profile
// construction.
type ChunkedOptions struct {
	// ChunkSize is the number of events per chunk grammar; it bounds
	// SEQUITUR's live memory. Required, > 0.
	ChunkSize uint64
	// Workers is the number of concurrent chunk compressors (and the
	// default concurrency of the chunked analyses). Zero means all cores
	// (runtime.GOMAXPROCS(0)). The produced profile is byte-identical for
	// every worker count.
	Workers int
}

// ChunkedProfile is a whole program path built in bounded memory: the
// trace is a sequence of per-chunk SEQUITUR grammars instead of one
// monolithic grammar. Analyses run per chunk — concurrently, when the
// profile was built with Workers != 1 — and produce exactly the answers
// the monolithic profile would.
type ChunkedProfile struct {
	// Result is the traced run's return value.
	Result int64
	// Stats describes the traced run.
	Stats RunStats

	cw      *iwpp.ChunkedWPP
	nums    []*bl.Numbering
	workers int
	report  *BuildReport
}

// BuildReport summarizes a chunked build: events ingested, chunk and
// byte totals, the compression ratio, and each worker's busy fraction of
// the build's wall time.
type BuildReport = iwpp.BuildReport

// Report returns the build summary recorded while this profile was
// constructed. Profiles loaded with ReadChunkedProfile were not built in
// this process and return nil.
func (cp *ChunkedProfile) Report() *BuildReport { return cp.report }

// ProfileChunked runs main(args...) under path tracing, compressing the
// event stream with the parallel chunked pipeline.
func (p *Program) ProfileChunked(args []int64, copts ChunkedOptions, opts ...RunOption) (*ChunkedProfile, error) {
	if copts.ChunkSize == 0 {
		return nil, fmt.Errorf("wpp: ChunkedOptions.ChunkSize must be positive")
	}
	var rc runConfig
	for _, o := range opts {
		o(&rc)
	}
	art, rep, res, stats, nums, err := p.profileWith(args, iwpp.BuildOptions{ChunkSize: copts.ChunkSize, Workers: copts.Workers}, rc)
	if err != nil {
		return nil, err
	}
	return &ChunkedProfile{
		Result:  res,
		Stats:   stats,
		cw:      art.(*iwpp.ChunkedWPP),
		nums:    nums,
		workers: copts.Workers,
		report:  rep,
	}, nil
}

// ChunkedSize summarizes a chunked profile.
type ChunkedSize struct {
	// Events is the trace length; Chunks the number of chunk grammars.
	Events uint64
	Chunks int
	// Rules and RHSSymbols are totals across all chunk grammars.
	Rules, RHSSymbols int
	// GrammarBytes is the encoded size of all chunk grammars.
	GrammarBytes int64
	// PeakLiveRHS is the largest live grammar seen during construction —
	// the working-set bound that chunking buys.
	PeakLiveRHS int
}

func (s ChunkedSize) String() string {
	return fmt.Sprintf("events=%d chunks=%d rules=%d symbols=%d grammar=%dB peak=%d",
		s.Events, s.Chunks, s.Rules, s.RHSSymbols, s.GrammarBytes, s.PeakLiveRHS)
}

// Size reports the profile's size statistics.
func (cp *ChunkedProfile) Size() ChunkedSize {
	st := cp.cw.Stats()
	return ChunkedSize{
		Events: st.Events, Chunks: st.Chunks,
		Rules: st.Rules, RHSSymbols: st.RHSSymbols,
		GrammarBytes: st.GrammarBytes, PeakLiveRHS: st.PeakLiveRHS,
	}
}

// Events reports the trace length.
func (cp *ChunkedProfile) Events() uint64 { return cp.cw.Events }

// Instructions reports the traced run's instruction count.
func (cp *ChunkedProfile) Instructions() uint64 { return cp.cw.Instructions }

// Walk yields every acyclic-path event of the trace in order.
func (cp *ChunkedProfile) Walk(yield func(fn string, pathID uint64) bool) {
	cp.cw.Walk(func(e trace.Event) bool {
		return yield(cp.cw.Funcs[e.Func()].Name, e.Path())
	})
}

// Verify checks every chunk grammar, in parallel with the profile's
// worker count.
func (cp *ChunkedProfile) Verify() error { return cp.cw.VerifyParallel(cp.workers) }

// HotSubpaths finds all minimal hot subpaths, analyzing the chunks
// concurrently with the profile's worker count. The result is identical
// to Profile.HotSubpaths over the same execution.
func (cp *ChunkedProfile) HotSubpaths(opts HotOptions) ([]HotSubpath, error) {
	return hotSubpaths(cp.cw, cp.nums, opts, cp.workers)
}

// PathFrequency is one acyclic path's execution count.
type PathFrequency struct {
	// Path renders the acyclic path as "func:pathID".
	Path  string
	Count uint64
}

// PathFrequencies recovers the classic path profile (path → frequency)
// from the chunked trace, computed per chunk concurrently, sorted by
// count descending.
func (cp *ChunkedProfile) PathFrequencies() []PathFrequency {
	freqs, _ := hotpath.EventFrequencies(cp.cw, cp.workers) // in-memory chunks cannot fail
	out := make([]PathFrequency, 0, len(freqs))
	type row struct {
		e trace.Event
		n uint64
	}
	rows := make([]row, 0, len(freqs))
	for e, n := range freqs {
		rows = append(rows, row{e, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].e < rows[j].e
	})
	for _, r := range rows {
		out = append(out, PathFrequency{Path: iwpp.EventName(cp.cw.Funcs, r.e), Count: r.n})
	}
	return out
}

// WriteTo persists the chunked artifact (magic "WPC1").
func (cp *ChunkedProfile) WriteTo(w io.Writer) (int64, error) {
	return cp.cw.Encode(w)
}

// ReadChunkedProfile loads a chunked artifact (WPC1 or WPC2) written by
// WriteTo. A monolithic artifact is an error; read it with ReadProfile.
func ReadChunkedProfile(r io.Reader) (*ChunkedProfile, error) {
	a, err := readArtifact(r)
	if err != nil {
		return nil, err
	}
	cw, ok := a.(*iwpp.ChunkedWPP)
	if !ok {
		return nil, fmt.Errorf("wpp: artifact is a monolithic WPP; read it with ReadProfile")
	}
	if err := cw.Verify(); err != nil {
		return nil, err
	}
	return &ChunkedProfile{
		Stats: RunStats{Instructions: cw.Instructions, PathEvents: cw.Events},
		cw:    cw,
	}, nil
}
