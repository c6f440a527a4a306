package engine

import (
	"fmt"
	"sort"
)

// Positions answers positional queries over any Source — the event at
// a trace position, or a run of consecutive events — without expanding
// the trace. It holds each chunk's event prefix sum, binary-searches it
// for the chunk that holds a position, and descends that chunk's
// grammar by Analysis.CumLens (Analysis.Collect), in O(grammar depth x
// log fanout) per position.
//
// Building it takes the chunk lengths from the source's header when the
// source states them (HeaderSource), and otherwise loads every chunk
// once, one at a time, to learn its length. A query then asks the
// source's holder (Hold) for the Analyses of the chunks its range
// touches, so queries that move forward through the trace load each
// chunk once. A Positions is safe for concurrent use.
type Positions struct {
	src  *Chunks
	ends []uint64 // ends[c] is the number of events in chunks 0..c
	// hdr is src when ends came from its header: each chunk is then held
	// to its stated length whenever a query obtains it.
	hdr HeaderSource
}

// HeaderSource is a Source whose header states every chunk's expansion
// length, so it can be indexed by position without loading a chunk.
type HeaderSource interface {
	Source
	// ChunkLengths returns the chunk lengths the header states, or false
	// if the header cannot state them consistently.
	ChunkLengths() ([]uint64, bool)
	// LengthError reports that chunk i, once loaded, expands to got
	// events, not the length ChunkLengths stated.
	LengthError(i int, got uint64) error
}

// NewPositions indexes src's chunks by event position. It fails if a
// chunk it loads does, or if the chunks together hold more events than a
// uint64 counts (AddLength). A HeaderSource's chunks are not loaded
// here; each one a query obtains later must expand to the length its
// header states, or the query fails with the source's LengthError.
func NewPositions(src Source) (*Positions, error) {
	p := &Positions{src: Hold(src), ends: make([]uint64, src.NumChunks())}
	var total uint64
	if h, ok := src.(HeaderSource); ok {
		if lens, ok := h.ChunkLengths(); ok && len(lens) == len(p.ends) {
			for c, n := range lens {
				var err error
				if total, err = AddLength(total, n); err != nil {
					return nil, err
				}
				p.ends[c] = total
			}
			p.hdr = h
			return p, nil
		}
	}
	for c := range p.ends {
		sn, err := src.Chunk(c)
		if err != nil {
			return nil, err
		}
		if len(sn.Rules) > 0 {
			if total, err = AddLength(total, sn.ExpandedLen()[0]); err != nil {
				return nil, err
			}
		}
		p.ends[c] = total
	}
	return p, nil
}

// Len is the trace length: the sum of the chunks' expansion lengths.
func (p *Positions) Len() uint64 {
	if len(p.ends) == 0 {
		return 0
	}
	return p.ends[len(p.ends)-1]
}

// locate returns the chunk that holds position i (i < Len), the
// chunk's Analysis, and i's offset within the chunk.
func (p *Positions) locate(i uint64) (*Analysis, uint64, error) {
	c := sort.Search(len(p.ends), func(c int) bool { return p.ends[c] > i })
	var start uint64 // the chunk's first position
	if c > 0 {
		start = p.ends[c-1]
	}
	a, err := p.src.Analysis(c)
	if err == nil && p.hdr != nil && a.Length() != p.ends[c]-start {
		err = p.hdr.LengthError(c, a.Length())
	}
	if err != nil {
		return nil, 0, err
	}
	return a, i - start, nil
}

// EventAt returns the event at position i (0-based).
func (p *Positions) EventAt(i uint64) (uint64, error) {
	if i >= p.Len() {
		return 0, fmt.Errorf("wpp: position %d out of range [0,%d)", i, p.Len())
	}
	var one [1]uint64
	out, err := p.Slice(i, 1, one[:0])
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// Slice appends the events at positions [from, from+n) to out and
// returns it.
func (p *Positions) Slice(from, n uint64, out []uint64) ([]uint64, error) {
	if from+n > p.Len() || from+n < from {
		return nil, fmt.Errorf("wpp: range [%d,%d) out of bounds [0,%d)", from, from+n, p.Len())
	}
	for n > 0 {
		a, off, err := p.locate(from)
		if err != nil {
			return nil, err
		}
		take := min(n, a.Length()-off)
		out = a.Collect(0, off, take, out)
		from += take
		n -= take
	}
	return out, nil
}

// diffBlock is how many events FirstDiff compares at a time.
const diffBlock = 4096

// FirstDiff returns the first position at which the traces of a and b
// hold different events. If the shorter trace is a prefix of the longer
// one it returns the shorter length, so the traces are identical
// exactly when the result equals both a.Len() and b.Len().
//
// It walks a one chunk at a time and compares each chunk, diffBlock
// events at a time, with b's Slice of the same positions. Neither trace
// is materialized: memory is what each side's holder keeps (Chunks)
// plus two blocks, whatever the trace length.
func FirstDiff(a, b *Positions) (uint64, error) {
	n := min(a.Len(), b.Len())
	var ea, eb []uint64
	for pos := uint64(0); pos < n; {
		ca, off, err := a.locate(pos)
		if err != nil {
			return 0, err
		}
		k := min(diffBlock, n-pos, ca.Length()-off)
		ea = ca.Collect(0, off, k, ea[:0])
		if eb, err = b.Slice(pos, k, eb[:0]); err != nil {
			return 0, err
		}
		for j := range ea {
			if ea[j] != eb[j] {
				return pos + uint64(j), nil
			}
		}
		pos += k
	}
	return n, nil
}
