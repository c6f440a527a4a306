package wpp

import (
	"repro/internal/bl"
	"repro/internal/sequitur"
	"repro/internal/trace"
)

// refBuilder is the test reference the builder is held to: a
// chunked WPP built the plain way, on the caller's goroutine, one event
// at a time. One sequitur.Grammar is reused through Reset at each seal,
// each distinct event is priced as it arrives, and PeakLiveRHS samples
// the live grammar's symbol count before each snapshot. It does the
// same grammar work as the parallel builder at one worker, so
// TestParallelOverheadBound measures only the pipeline's overhead.
type refBuilder struct {
	g    *sequitur.Grammar
	nums []*bl.Numbering
	c    *ChunkedWPP
	n    uint64 // events in the chunk being filled
}

func newRefBuilder(names []string, nums []*bl.Numbering, chunkSize uint64) *refBuilder {
	if chunkSize == 0 {
		panic("wpp: chunk size must be positive")
	}
	return &refBuilder{
		g:    sequitur.New(),
		nums: nums,
		c:    &ChunkedWPP{Funcs: funcTable(names, nums), ChunkSize: chunkSize, costs: map[trace.Event]uint64{}},
	}
}

func (b *refBuilder) Add(e trace.Event) {
	b.g.Append(uint64(e))
	b.c.Events++
	if _, seen := b.c.costs[e]; !seen {
		b.c.costs[e] = pathCost(b.nums, e)
	}
	if b.n++; b.n == b.c.ChunkSize {
		b.seal()
	}
}

func (b *refBuilder) seal() {
	b.c.PeakLiveRHS = max(b.c.PeakLiveRHS, b.g.Stats().RHSSymbols)
	b.c.Chunks = append(b.c.Chunks, b.g.Snapshot())
	b.g.Reset()
	b.n = 0
}

// Finish seals the partial last chunk and returns the artifact.
func (b *refBuilder) Finish(instructions uint64) *ChunkedWPP {
	if b.n > 0 {
		b.seal()
	}
	b.c.Instructions = instructions
	return b.c
}
