package wpp

import (
	"bufio"
	"encoding/binary"
	"io"
	"sort"

	"repro/internal/trace"
)

// Binary layout of a chunked WPP (all varints except magic and names):
//
//	magic "WPC1"
//	numFuncs, then per func: nameLen, name bytes, numPaths
//	chunkSize, events, instructions, peakLiveRHS
//	numCosts, then per entry (sorted by event): event, cost
//	numChunks, then each chunk as a sequitur snapshot encoding
var chunkedMagic = [4]byte{'W', 'P', 'C', '1'}

// Encode writes the chunked WPP to out in the encoding Version selects.
// The encoding is a deterministic function of the artifact, so equal
// artifacts serialize byte-identically.
func (c *ChunkedWPP) Encode(out io.Writer) (int64, error) {
	if c.Version >= FormatV2 {
		return c.encodeChunkedV2(out)
	}
	written, err := c.encodeHeaderV1(out)
	if err != nil {
		return written, err
	}
	for _, ch := range c.Chunks {
		gn, err := ch.Encode(out)
		written += gn
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// encodeHeaderV1 writes everything before the chunk grammars: magic,
// function table, geometry, cost table, and the chunk count. Encode is
// exactly this header followed by each chunk's sequitur encoding — the
// split ArtifactView.Parts recovers for per-chunk content addressing.
func (c *ChunkedWPP) encodeHeaderV1(out io.Writer) (int64, error) {
	bw := bufio.NewWriter(out)
	var written int64
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		m, err := bw.Write(buf[:n])
		written += int64(m)
		return err
	}
	n, err := bw.Write(chunkedMagic[:])
	written += int64(n)
	if err != nil {
		return written, err
	}
	if err := put(uint64(len(c.Funcs))); err != nil {
		return written, err
	}
	for _, f := range c.Funcs {
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
	for _, v := range []uint64{c.ChunkSize, c.Events, c.Instructions, uint64(c.PeakLiveRHS)} {
		if err := put(v); err != nil {
			return written, err
		}
	}
	if err := put(uint64(len(c.costs))); err != nil {
		return written, err
	}
	events := make([]trace.Event, 0, len(c.costs))
	for e := range c.costs {
		events = append(events, e)
	}
	sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
	for _, e := range events {
		if err := put(uint64(e)); err != nil {
			return written, err
		}
		if err := put(c.costs[e]); err != nil {
			return written, err
		}
	}
	if err := put(uint64(len(c.Chunks))); err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// EncodedBytes returns the byte size Encode would produce for the whole
// artifact — header, cost table, and every chunk grammar. (EncodedSize
// reports the grammar bytes alone, for size comparisons against the
// monolithic grammar.)
func (c *ChunkedWPP) EncodedBytes() int64 {
	if c.Version >= FormatV2 {
		return c.encodedBytesV2()
	}
	n := int64(4)
	n += int64(uvarintLen(uint64(len(c.Funcs))))
	for _, f := range c.Funcs {
		n += int64(uvarintLen(uint64(len(f.Name)))) + int64(len(f.Name)) + int64(uvarintLen(f.NumPaths))
	}
	for _, v := range []uint64{c.ChunkSize, c.Events, c.Instructions, uint64(c.PeakLiveRHS)} {
		n += int64(uvarintLen(v))
	}
	n += int64(uvarintLen(uint64(len(c.costs))))
	for e, cost := range c.costs {
		n += int64(uvarintLen(uint64(e))) + int64(uvarintLen(cost))
	}
	n += int64(uvarintLen(uint64(len(c.Chunks))))
	return n + c.EncodedSize()
}
