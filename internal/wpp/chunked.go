package wpp

import (
	"io"

	"repro/internal/sequitur"
	"repro/internal/trace"
)

// ChunkedWPP is a whole program path in bounded-memory form: the event
// stream cut into fixed-size chunks, each compressed by its own SEQUITUR
// grammar. Larus notes that SEQUITUR's memory grows with the (unique
// structure of the) trace; chunking caps live memory at the cost of
// repetition that spans chunk boundaries — the A3 ablation quantifies
// that cost. wpp.New builds one when BuildOptions.ChunkSize is positive.
type ChunkedWPP struct {
	Funcs        []FuncInfo
	Chunks       []*sequitur.Snapshot
	ChunkSize    uint64
	Events       uint64
	Instructions uint64
	// PeakLiveRHS is the largest number of live grammar symbols during
	// construction — the working-set bound chunking provides.
	PeakLiveRHS int
	// Version selects the on-disk encoding (FormatV1 or FormatV2; zero
	// encodes as v1). Decoding sets it to the format that was read, so
	// the canonical re-encoding reproduces the input bytes.
	Version uint8
	costs   map[trace.Event]uint64
}

// artifact is c as the shared implementation sees it.
func (c *ChunkedWPP) artifact() *artifact {
	return &artifact{
		header: header{chunked: true, version: c.Version, funcs: c.Funcs, chunkSize: c.ChunkSize,
			events: c.Events, instructions: c.Instructions, peakLiveRHS: c.PeakLiveRHS, costs: c.costs},
		chunks: c.Chunks,
	}
}

// NumChunks reports the number of chunk grammars. Together with Chunk it
// makes the ChunkedWPP an engine.Source.
func (c *ChunkedWPP) NumChunks() int { return len(c.Chunks) }

// Chunk returns chunk i's grammar.
func (c *ChunkedWPP) Chunk(i int) (*sequitur.Snapshot, error) { return c.Chunks[i], nil }

// Walk yields the full event trace across all chunks in order.
func (c *ChunkedWPP) Walk(yield func(trace.Event) bool) { walk(c, yield) }

// Encode writes the chunked WPP to out in the encoding Version selects.
// The encoding is a deterministic function of the artifact, so equal
// artifacts serialize byte-identically.
func (c *ChunkedWPP) Encode(out io.Writer) (int64, error) { return c.artifact().encode(out) }

// EncodedSize returns the byte size Encode would produce: header, cost
// table and every chunk grammar. Stats().GrammarBytes is the grammars
// alone.
func (c *ChunkedWPP) EncodedSize() int64 { return c.artifact().encodedSize() }

// Stats computes the summary.
func (c *ChunkedWPP) Stats() Stats { return c.artifact().stats() }

// PathCost returns the instruction cost of one event's acyclic path.
// Unknown events cost 0.
func (c *ChunkedWPP) PathCost(e trace.Event) uint64 { return c.costs[e] }

// DistinctPaths reports how many distinct (function, path) pairs were
// executed.
func (c *ChunkedWPP) DistinctPaths() int { return len(c.costs) }

// Verify is WPP.Verify over every chunk, plus the chunk geometry: every
// chunk but the last expands to exactly ChunkSize events.
func (c *ChunkedWPP) Verify(workers int) error {
	_, err := c.artifact().verify(workers, false)
	return err
}

// VerifyArtifact is Verify plus the duplicate-digram count, as for WPP.
func (c *ChunkedWPP) VerifyArtifact(workers int) (VerifyReport, error) {
	return c.artifact().verify(workers, true)
}

// DistinctEvents lists the cost table's events in ascending order: on a
// verified artifact, exactly the distinct events of the trace.
func (c *ChunkedWPP) DistinctEvents() []trace.Event { return sortedCostEvents(c.costs) }
