package wpp

import (
	"fmt"

	iwpp "repro/internal/wpp"
)

// ChunkedOptions configures bounded-memory, parallel profile
// construction.
type ChunkedOptions struct {
	// ChunkSize is the number of events per chunk grammar; it bounds
	// SEQUITUR's live memory. Required, > 0.
	ChunkSize uint64
	// Workers is the number of concurrent chunk compressors (and the
	// default concurrency of the profile's analyses). Zero means all
	// cores (runtime.GOMAXPROCS(0)). The produced profile is
	// byte-identical for every worker count.
	Workers int
}

// BuildReport summarizes a profile's build: events ingested, chunk and
// byte totals, the compression ratio, and each worker's busy fraction of
// the build's wall time.
type BuildReport = iwpp.BuildReport

// ProfileChunked runs main(args...) under path tracing, compressing the
// event stream with the parallel chunked pipeline: the trace becomes a
// sequence of per-chunk SEQUITUR grammars instead of one monolithic
// grammar, built in bounded memory. Analyses run per chunk —
// concurrently, unless Workers is 1 — and produce exactly the answers
// the monolithic profile would.
func (p *Program) ProfileChunked(args []int64, copts ChunkedOptions, opts ...RunOption) (*Profile, error) {
	if copts.ChunkSize == 0 {
		return nil, fmt.Errorf("wpp: ChunkedOptions.ChunkSize must be positive")
	}
	return p.profileWith(args, iwpp.BuildOptions{ChunkSize: copts.ChunkSize, Workers: copts.Workers}, opts)
}
