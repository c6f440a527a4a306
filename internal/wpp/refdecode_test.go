package wpp

// refDecode is the reference FuzzViewParity and the golden parity suite
// hold ArtifactView to: a streaming decoder of all four formats, written
// independently of the view's byte-slice parser and of sequitur.Decode.
// It reads one bufio stream front to back, with the same plausibility
// caps as the view, and tolerates bytes after the last grammar as the
// view does.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/sequitur"
	"repro/internal/trace"
)

// refReader reads the varint fields of an artifact stream.
type refReader struct{ br *bufio.Reader }

func (d refReader) get(what string) (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, fmt.Errorf("ref: reading %s: %w", what, err)
	}
	return v, nil
}

// capped reads a count and rejects it above max.
func (d refReader) capped(what string, max uint64) (uint64, error) {
	v, err := d.get(what)
	if err == nil && v > max {
		err = fmt.Errorf("ref: implausible %s %d", what, v)
	}
	return v, err
}

// refDecode decodes one artifact from r.
func refDecode(r io.Reader) (Artifact, error) {
	d := refReader{bufio.NewReader(r)}
	var m [4]byte
	if _, err := io.ReadFull(d.br, m[:]); err != nil {
		return nil, fmt.Errorf("ref: reading magic: %w", err)
	}
	var version uint8
	var chunked bool
	switch m {
	case wppMagic:
		version = FormatV1
	case wpp2Magic:
		version = FormatV2
	case chunkedMagic:
		version, chunked = FormatV1, true
	case chunked2Magic:
		version, chunked = FormatV2, true
	default:
		return nil, fmt.Errorf("ref: bad magic %q", m[:])
	}

	numFuncs, err := d.capped("function count", trace.MaxFuncs)
	if err != nil {
		return nil, err
	}
	funcs := make([]FuncInfo, numFuncs)
	for i := range funcs {
		nameLen, err := d.capped("name length", 1<<16)
		if err != nil {
			return nil, err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(d.br, name); err != nil {
			return nil, fmt.Errorf("ref: reading name: %w", err)
		}
		funcs[i].Name = string(name)
		if funcs[i].NumPaths, err = d.get("path count"); err != nil {
			return nil, err
		}
	}

	var chunkSize, events, instructions, peak uint64
	if chunked {
		if chunkSize, err = d.get("chunk size"); err != nil {
			return nil, err
		}
		if chunkSize == 0 {
			return nil, fmt.Errorf("ref: chunk size 0")
		}
	}
	if events, err = d.get("event count"); err != nil {
		return nil, err
	}
	if instructions, err = d.get("instruction count"); err != nil {
		return nil, err
	}
	if chunked {
		if peak, err = d.capped("peak live RHS", 1<<40); err != nil {
			return nil, err
		}
	}

	// v1 tables hold absolute events in any order; v2 tables hold
	// strictly ascending deltas whose prefix sums are the rank dictionary.
	numCosts, err := d.capped("cost count", 1<<32)
	if err != nil {
		return nil, err
	}
	costs := map[trace.Event]uint64{}
	var dict []trace.Event
	for i := uint64(0); i < numCosts; i++ {
		e, err := d.get("cost event")
		if err != nil {
			return nil, err
		}
		if version == FormatV2 && i > 0 {
			if e == 0 {
				return nil, fmt.Errorf("ref: cost table entry %d repeats its predecessor", i)
			}
			prev := uint64(dict[i-1])
			if e += prev; e < prev {
				return nil, fmt.Errorf("ref: cost table entry %d overflows", i)
			}
		}
		c, err := d.get("cost value")
		if err != nil {
			return nil, err
		}
		if err := trace.CheckEvent(trace.Event(e)); err != nil {
			return nil, fmt.Errorf("ref: cost table: %w", err)
		}
		costs[trace.Event(e)] = c
		dict = append(dict, trace.Event(e))
	}

	numChunks := uint64(1)
	if chunked {
		if numChunks, err = d.capped("chunk count", 1<<32); err != nil {
			return nil, err
		}
	}
	snaps := make([]*sequitur.Snapshot, 0, min(numChunks, 1<<16))
	for i := uint64(0); i < numChunks; i++ {
		sn, err := refSnapshot(d.br)
		if err != nil {
			return nil, fmt.Errorf("ref: chunk %d: %w", i, err)
		}
		if version == FormatV2 {
			if err := unrankRef(sn, dict); err != nil {
				return nil, fmt.Errorf("ref: chunk %d: %w", i, err)
			}
		}
		snaps = append(snaps, sn)
	}

	if !chunked {
		return &WPP{Funcs: funcs, Grammar: snaps[0], Events: events, Instructions: instructions,
			Version: version, costs: costs}, nil
	}
	return &ChunkedWPP{Funcs: funcs, Chunks: snaps, ChunkSize: chunkSize, Events: events,
		Instructions: instructions, PeakLiveRHS: int(peak), Version: version, costs: costs}, nil
}

// unrankRef maps a v2 grammar's terminal ranks back to event values.
func unrankRef(sn *sequitur.Snapshot, dict []trace.Event) error {
	for _, rhs := range sn.Rules {
		for j, s := range rhs {
			if s.IsRule() {
				continue
			}
			if s.Value >= uint64(len(dict)) {
				return fmt.Errorf("terminal rank %d beyond dictionary (%d entries)", s.Value, len(dict))
			}
			rhs[j].Value = uint64(dict[s.Value])
		}
	}
	return nil
}

// refSnapshot reads one SQG1 snapshot from the stream, leaving br just
// past it.
func refSnapshot(br *bufio.Reader) (*sequitur.Snapshot, error) {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("reading snapshot magic: %w", err)
	}
	if m != [4]byte{'S', 'Q', 'G', '1'} {
		return nil, fmt.Errorf("bad snapshot magic %q", m[:])
	}
	const maxRules = 1 << 31
	numRules, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("reading rule count: %w", err)
	}
	if numRules > maxRules {
		return nil, fmt.Errorf("implausible rule count %d", numRules)
	}
	sn := &sequitur.Snapshot{Rules: make([][]sequitur.Sym, 0, min(numRules, 1<<16))}
	for i := uint64(0); i < numRules; i++ {
		rhsLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("rule %d: reading length: %w", i, err)
		}
		if rhsLen > maxRules {
			return nil, fmt.Errorf("rule %d: implausible length %d", i, rhsLen)
		}
		rhs := make([]sequitur.Sym, 0, min(rhsLen, 1<<16))
		for j := uint64(0); j < rhsLen; j++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("rule %d sym %d: %w", i, j, err)
			}
			if v&1 == 0 {
				rhs = append(rhs, sequitur.Sym{Rule: -1, Value: v >> 1})
				continue
			}
			if v>>1 >= numRules {
				return nil, fmt.Errorf("rule %d sym %d: rule reference %d out of range", i, j, v>>1)
			}
			rhs = append(rhs, sequitur.Sym{Rule: int32(v >> 1)})
		}
		sn.Rules = append(sn.Rules, rhs)
	}
	return sn, nil
}
