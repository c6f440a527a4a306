package wpp_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/hotpath"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/wpp"
)

// overflowFile is a committed copy of overflowArtifact's bytes, for the
// command-line tests.
var overflowFile = filepath.Join("testdata", "overflow65.wpp1")

// overflowChunksFile is a committed copy of overflowChunksArtifact's
// bytes, for the command-line tests.
var overflowChunksFile = filepath.Join("testdata", "overflow2x63.wpc1")

// overflowArtifact hand-encodes a 65-rule WPP1 whose grammar expands to
// 2^65+2 events: R0 = R1 R1 b a, Ri = Ri+1 Ri+1 for 0 < i < 64, and
// R64 = a b. Modulo 2^64 the expansion is 2 events, which is what the
// header declares, so only a length check that refuses to wrap can tell
// it from a valid two-event artifact.
func overflowArtifact() []byte {
	a, b := trace.MakeEvent(0, 0), trace.MakeEvent(0, 1)
	term := func(e trace.Event) sequitur.Sym { return sequitur.Sym{Rule: -1, Value: uint64(e)} }
	ref := func(r int) sequitur.Sym { return sequitur.Sym{Rule: int32(r)} }
	sn := &sequitur.Snapshot{Rules: [][]sequitur.Sym{{ref(1), ref(1), term(b), term(a)}}}
	for i := 1; i < 64; i++ {
		sn.Rules = append(sn.Rules, []sequitur.Sym{ref(i + 1), ref(i + 1)})
	}
	sn.Rules = append(sn.Rules, []sequitur.Sym{term(a), term(b)})

	var buf bytes.Buffer
	buf.WriteString("WPP1")
	for _, v := range []uint64{
		1, 4, 'm', 'a', 'i', 'n', 2, // one function "main" with 2 paths
		2, 2, // events, instructions
		2, uint64(a), 1, uint64(b), 1, // cost table
	} {
		buf.Write(binary.AppendUvarint(nil, v))
	}
	enc, _ := sn.AppendEncoding(buf.Bytes(), nil)
	return enc
}

// overflowChunksArtifact hand-encodes a WPC1 of two chunks, each a
// 63-rule grammar that expands to 2^63 events: R0 = R1 R1,
// Ri = Ri+1 Ri+1 for 0 < i < 62, and R62 = a b. Each chunk's length
// fits in 64 bits and matches the declared chunk size, 2^63, but their
// sum wraps to 0, which is what the header declares as the event count.
func overflowChunksArtifact() []byte {
	a, b := trace.MakeEvent(0, 0), trace.MakeEvent(0, 1)
	term := func(e trace.Event) sequitur.Sym { return sequitur.Sym{Rule: -1, Value: uint64(e)} }
	ref := func(r int) sequitur.Sym { return sequitur.Sym{Rule: int32(r)} }
	sn := &sequitur.Snapshot{}
	for i := 0; i < 62; i++ {
		sn.Rules = append(sn.Rules, []sequitur.Sym{ref(i + 1), ref(i + 1)})
	}
	sn.Rules = append(sn.Rules, []sequitur.Sym{term(a), term(b)})

	var buf bytes.Buffer
	buf.WriteString("WPC1")
	for _, v := range []uint64{
		1, 4, 'm', 'a', 'i', 'n', 2, // one function "main" with 2 paths
		1 << 63, 0, 0, 0, // chunk size, events, instructions, peak live RHS
		2, uint64(a), 1, uint64(b), 1, // cost table
		2, // chunks
	} {
		buf.Write(binary.AppendUvarint(nil, v))
	}
	enc := buf.Bytes()
	for range 2 {
		enc, _ = sn.AppendEncoding(enc, nil)
	}
	return enc
}

// TestExpansionOverflowRejected: the overflowing artifact gets a typed
// error from Verify on a view, from Decode, and from the hot-subpath
// search on a view, instead of being read as two events.
func TestExpansionOverflowRejected(t *testing.T) {
	data := overflowArtifact()
	if committed, err := os.ReadFile(overflowFile); err != nil || !bytes.Equal(committed, data) {
		t.Fatalf("%s is missing or stale (%v); rewrite it from overflowArtifact", overflowFile, err)
	}
	v, err := wpp.NewView(data, nil)
	if err != nil {
		t.Fatalf("the header is well formed, open must succeed: %v", err)
	}
	defer v.Close()
	if err := v.Verify(0); !errors.Is(err, sequitur.ErrExpansionOverflow) {
		t.Errorf("view Verify(0) = %v, want ErrExpansionOverflow", err)
	}
	if _, err := wpp.Decode(data); !errors.Is(err, sequitur.ErrExpansionOverflow) {
		t.Errorf("Decode = %v, want ErrExpansionOverflow", err)
	}
	if _, err := hotpath.Find(v, hotpath.Options{MinLen: 2, MaxLen: 4, Threshold: 0.01}, 1); !errors.Is(err, sequitur.ErrExpansionOverflow) {
		t.Errorf("hotpath.Find on the view = %v, want ErrExpansionOverflow", err)
	}
}

// TestChunkLengthSumOverflowRejected: the two-chunk artifact whose
// chunk lengths each fit in 64 bits but whose sum does not gets a typed
// error from Verify, from the positional index and from the hot-subpath
// search, instead of being read as an empty trace.
func TestChunkLengthSumOverflowRejected(t *testing.T) {
	data := overflowChunksArtifact()
	if committed, err := os.ReadFile(overflowChunksFile); err != nil || !bytes.Equal(committed, data) {
		t.Fatalf("%s is missing or stale (%v); rewrite it from overflowChunksArtifact", overflowChunksFile, err)
	}
	v, err := wpp.NewView(data, nil)
	if err != nil {
		t.Fatalf("the header is well formed, open must succeed: %v", err)
	}
	defer v.Close()
	for i := range v.NumChunks() {
		if _, err := v.Chunk(i); err != nil {
			t.Fatalf("chunk %d alone is valid: %v", i, err)
		}
	}
	if err := v.Verify(0); !errors.Is(err, sequitur.ErrExpansionOverflow) {
		t.Errorf("view Verify(0) = %v, want ErrExpansionOverflow", err)
	}
	if _, err := engine.NewPositions(v); !errors.Is(err, sequitur.ErrExpansionOverflow) {
		t.Errorf("engine.NewPositions on the view = %v, want ErrExpansionOverflow", err)
	}
	if _, err := hotpath.Find(v, hotpath.Options{MinLen: 2, MaxLen: 4, Threshold: 0.01}, 1); !errors.Is(err, sequitur.ErrExpansionOverflow) {
		t.Errorf("hotpath.Find on the view = %v, want ErrExpansionOverflow", err)
	}
}
