package wpp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"repro/internal/engine"
	"repro/internal/sequitur"
	"repro/internal/trace"
)

// Binary layout of the four artifact encodings (all varints except magic
// and names):
//
//	magic "WPP1", "WPP2", "WPC1" or "WPC2"
//	numFuncs, then per func: nameLen, name bytes, numPaths
//	monolithic: events, instructions
//	chunked:    chunkSize, events, instructions, peakLiveRHS
//	numCosts, then per entry (ascending by event): event, cost
//	chunked only: numChunks
//	each grammar as a sequitur snapshot encoding (one for monolithic)
//
// Version 2 changes two packings, both never-larger by construction:
//
//   - the cost table is delta-encoded: each event after the first is
//     written as the difference from its predecessor. Sorted distinct
//     values make every delta at most the value it replaces.
//
//   - grammar terminals are dictionary ranks: the sorted cost-table
//     events double as a dictionary, and each terminal encodes as its
//     index in that list instead of its 62-bit event value. The i-th
//     smallest distinct non-negative value is at least i, so rank <=
//     value. Rule references and snapshot framing are unchanged.
//
// Every event a grammar generates has a recorded cost (a Verify
// invariant both builders establish), so the dictionary covers the
// terminals; encoding a v2 artifact whose grammar mentions an event
// missing from its cost table fails rather than producing bytes v2
// cannot represent.
var (
	wppMagic      = [4]byte{'W', 'P', 'P', '1'}
	wpp2Magic     = [4]byte{'W', 'P', 'P', '2'}
	chunkedMagic  = [4]byte{'W', 'P', 'C', '1'}
	chunked2Magic = [4]byte{'W', 'P', 'C', '2'}
)

// Artifact format versions, carried on the decoded artifact so the
// canonical re-encoding reproduces the bytes that were read.
const (
	// FormatV1 is the original encoding ("WPP1"/"WPC1"). The zero
	// Version encodes as v1, so artifacts constructed directly keep
	// their historical bytes.
	FormatV1 = 1
	// FormatV2 is the delta/rank-packed encoding ("WPP2"/"WPC2").
	FormatV2 = 2
)

// header is everything an encoding stores before the grammars. The
// view parses it; the eager artifacts assemble it from their fields.
type header struct {
	chunked      bool
	version      uint8
	funcs        []FuncInfo
	chunkSize    uint64 // chunked only
	events       uint64
	instructions uint64
	peakLiveRHS  int // chunked only
	costs        map[trace.Event]uint64
}

// v2 reports whether the header selects the rank/delta-packed encoding.
func (h *header) v2() bool { return h.version >= FormatV2 }

// magic is the four bytes that open the header's encoding.
func (h *header) magic() [4]byte {
	switch {
	case h.chunked && h.v2():
		return chunked2Magic
	case h.chunked:
		return chunkedMagic
	case h.v2():
		return wpp2Magic
	}
	return wppMagic
}

// geometry is the counter block between the function and cost tables.
func (h *header) geometry() []uint64 {
	if h.chunked {
		return []uint64{h.chunkSize, h.events, h.instructions, uint64(h.peakLiveRHS)}
	}
	return []uint64{h.events, h.instructions}
}

// artifact is the one implementation behind *WPP and *ChunkedWPP: a
// header plus the chunk grammars, of which a monolithic WPP has one.
// It is an engine.Source whose Chunk never fails.
type artifact struct {
	header
	chunks []*sequitur.Snapshot
}

func (a *artifact) NumChunks() int                          { return len(a.chunks) }
func (a *artifact) Chunk(i int) (*sequitur.Snapshot, error) { return a.chunks[i], nil }

// sortedCostEvents returns the cost table's keys in ascending order —
// the v2 terminal dictionary.
func sortedCostEvents(costs map[trace.Event]uint64) []trace.Event {
	events := make([]trace.Event, 0, len(costs))
	for e := range costs {
		events = append(events, e)
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
	return events
}

// rankSnapshot returns a copy of sn with every terminal replaced by its
// dictionary rank. It fails if a terminal is not in the dictionary.
func rankSnapshot(sn *sequitur.Snapshot, rank map[uint64]uint64) (*sequitur.Snapshot, error) {
	out := &sequitur.Snapshot{Rules: make([][]sequitur.Sym, len(sn.Rules))}
	for i, rhs := range sn.Rules {
		nr := make([]sequitur.Sym, len(rhs))
		for j, s := range rhs {
			if s.IsRule() {
				nr[j] = s
				continue
			}
			r, ok := rank[s.Value]
			if !ok {
				return nil, fmt.Errorf("wpp: cannot encode v2: grammar terminal %v has no cost-table entry", trace.Event(s.Value))
			}
			nr[j] = sequitur.Sym{Rule: -1, Value: r}
		}
		out.Rules[i] = nr
	}
	return out, nil
}

// unrankSnapshot rewrites a decoded rank snapshot's terminals back to
// event values, in place. It fails on a rank beyond the dictionary.
func unrankSnapshot(sn *sequitur.Snapshot, dict []trace.Event) error {
	for i, rhs := range sn.Rules {
		for j, s := range rhs {
			if s.IsRule() {
				continue
			}
			if s.Value >= uint64(len(dict)) {
				return fmt.Errorf("wpp: rule %d sym %d: terminal rank %d beyond dictionary (%d entries)", i, j, s.Value, len(dict))
			}
			sn.Rules[i][j].Value = uint64(dict[s.Value])
		}
	}
	return nil
}

// terminalRanks builds the value -> rank map for the dictionary.
func terminalRanks(dict []trace.Event) map[uint64]uint64 {
	rank := make(map[uint64]uint64, len(dict))
	for i, e := range dict {
		rank[uint64(e)] = uint64(i)
	}
	return rank
}

// encoder writes varints through a buffered writer, counting bytes and
// keeping the first error.
type encoder struct {
	bw      *bufio.Writer
	written int64
	buf     [binary.MaxVarintLen64]byte
	err     error
}

func (e *encoder) put(v uint64) {
	n := binary.PutUvarint(e.buf[:], v)
	e.raw(e.buf[:n])
}

func (e *encoder) raw(p []byte) {
	if e.err != nil {
		return
	}
	m, err := e.bw.Write(p)
	e.written += int64(m)
	e.err = err
}

// encode writes the artifact in the container and version its header
// selects. The encoding is a deterministic function of the artifact, so
// equal artifacts serialize byte-identically.
func (a *artifact) encode(out io.Writer) (int64, error) {
	dict := sortedCostEvents(a.costs)
	grammars := a.chunks
	if a.v2() {
		rank := terminalRanks(dict)
		grammars = make([]*sequitur.Snapshot, len(a.chunks))
		for i, sn := range a.chunks {
			r, err := rankSnapshot(sn, rank)
			if err != nil {
				if a.chunked {
					err = fmt.Errorf("wpp: chunk %d: %w", i, err)
				}
				return 0, err
			}
			grammars[i] = r
		}
	}
	e := &encoder{bw: bufio.NewWriter(out)}
	m := a.magic()
	e.raw(m[:])
	e.put(uint64(len(a.funcs)))
	for _, f := range a.funcs {
		e.put(uint64(len(f.Name)))
		e.raw([]byte(f.Name))
		e.put(f.NumPaths)
	}
	for _, v := range a.geometry() {
		e.put(v)
	}
	e.put(uint64(len(dict)))
	prev := uint64(0)
	for _, ev := range dict {
		e.put(a.costKey(ev, prev))
		e.put(a.costs[ev])
		prev = uint64(ev)
	}
	if a.chunked {
		e.put(uint64(len(grammars)))
	}
	for _, sn := range grammars {
		if e.err != nil {
			break
		}
		n, err := sn.Encode(e.bw)
		e.written += n
		e.err = err
	}
	if e.err == nil {
		e.err = e.bw.Flush()
	}
	return e.written, e.err
}

// costKey is how a cost-table entry's event is written: absolute in v1,
// the difference from the previous (smaller) event in v2. The first
// entry's predecessor is 0, so its delta is its value.
func (h *header) costKey(ev trace.Event, prev uint64) uint64 {
	if h.v2() {
		return uint64(ev) - prev
	}
	return uint64(ev)
}

// encodedSize is the byte length encode writes, computed arithmetically
// from the same fields without encoding or copying a grammar. It is
// meaningful only for an artifact encode accepts.
func (a *artifact) encodedSize() int64 {
	dict := sortedCostEvents(a.costs)
	n := int64(4 + sequitur.UvarintLen(uint64(len(a.funcs))))
	for _, f := range a.funcs {
		n += int64(sequitur.UvarintLen(uint64(len(f.Name))) + len(f.Name) + sequitur.UvarintLen(f.NumPaths))
	}
	for _, v := range a.geometry() {
		n += int64(sequitur.UvarintLen(v))
	}
	n += int64(sequitur.UvarintLen(uint64(len(dict))))
	prev := uint64(0)
	for _, ev := range dict {
		n += int64(sequitur.UvarintLen(a.costKey(ev, prev)) + sequitur.UvarintLen(a.costs[ev]))
		prev = uint64(ev)
	}
	if a.chunked {
		n += int64(sequitur.UvarintLen(uint64(len(a.chunks))))
	}
	if !a.v2() {
		for _, sn := range a.chunks {
			n += sn.EncodedSize()
		}
		return n
	}
	// A ranked terminal's varint replaces the event's; the framing and
	// rule references are the v1 sizes.
	rank := terminalRanks(dict)
	for _, sn := range a.chunks {
		n += sn.EncodedSize()
		for _, rhs := range sn.Rules {
			for _, s := range rhs {
				if !s.IsRule() {
					n += int64(sequitur.UvarintLen(rank[s.Value]<<1) - sequitur.UvarintLen(s.Value<<1))
				}
			}
		}
	}
	return n
}

// walk yields the full event trace of src in order, one chunk at a time,
// stopping early if yield returns false. It fails only if a chunk does.
func walk(src engine.Source, yield func(trace.Event) bool) error {
	for i := 0; i < src.NumChunks(); i++ {
		sn, err := src.Chunk(i)
		if err != nil {
			return err
		}
		if len(sn.Rules) > 0 && !sn.Expand(0, func(v uint64) bool { return yield(trace.Event(v)) }) {
			return nil
		}
	}
	return nil
}

// statsOf is the one Stats computation behind every artifact type: the
// header's figures plus the grammar shape of every chunk of src, summed
// over `workers` goroutines (<=0 means GOMAXPROCS). encoded is the
// artifact's byte size. Grammar bytes are the canonical (v1, unranked)
// encoding for both format versions.
func statsOf(h *header, src engine.Source, workers int, encoded int64) (Stats, error) {
	per := make([]Stats, src.NumChunks())
	err := engine.EachChunk(src, workers, func(i int, sn *sequitur.Snapshot) error {
		per[i] = Stats{Rules: len(sn.Rules), GrammarBytes: sn.EncodedSize(), RawTraceBytes: snapshotRawBytes(sn)}
		for _, rhs := range sn.Rules {
			per[i].RHSSymbols += len(rhs)
		}
		return nil
	})
	if err != nil {
		return Stats{}, err
	}
	st := Stats{
		Events:        h.events,
		Chunks:        len(per),
		ChunkSize:     h.chunkSize,
		DistinctPaths: len(h.costs),
		PeakLiveRHS:   h.peakLiveRHS,
		EncodedBytes:  encoded,
		RawTraceBytes: 4, // trace magic
	}
	for _, s := range per {
		st.Rules += s.Rules
		st.RHSSymbols += s.RHSSymbols
		st.GrammarBytes += s.GrammarBytes
		st.RawTraceBytes += s.RawTraceBytes
	}
	return st, nil
}

// verify is check on an in-memory artifact.
func (a *artifact) verify(workers int, digrams bool) (VerifyReport, error) {
	return check(&a.header, a, workers, digrams)
}

// stats is Stats for an in-memory artifact, whose chunks cannot fail.
func (a *artifact) stats() Stats {
	st, _ := statsOf(&a.header, a, 1, a.encodedSize())
	return st
}

// rawTraceBytes is the size of the uncompressed varint trace the chunk
// grammars replace: the trace magic plus every chunk's expansion.
func rawTraceBytes(chunks []*sequitur.Snapshot) int64 {
	n := int64(4)
	for _, sn := range chunks {
		n += snapshotRawBytes(sn)
	}
	return n
}

// snapshotRawBytes is the varint byte size of a snapshot's full
// expansion, weighed on the grammar rather than expanded.
func snapshotRawBytes(sn *sequitur.Snapshot) int64 {
	sums, _ := sn.Weigh(func(v uint64) uint64 { return uint64(sequitur.UvarintLen(v)) })
	if len(sums) == 0 {
		return 0
	}
	return int64(sums[0])
}
