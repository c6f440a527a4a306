package wpp

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sequitur"
	"repro/internal/trace"
)

// checkLiveGrammar feeds events into a fresh live SEQUITUR grammar and
// holds it to the structural and digram-index invariants: Verify's
// chain/index cross-check plus bounded counts of duplicate and unindexed
// digrams (the documented seam slack).
func checkLiveGrammar(t *testing.T, events []trace.Event) {
	t.Helper()
	g := sequitur.New()
	for _, e := range events {
		g.Append(uint64(e) % sequitur.MaxTerminal)
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("live grammar verify: %v", err)
	}
	slack := 2 + len(events)/50
	if d := g.Snapshot().DigramDuplicates(); d > slack {
		t.Fatalf("live grammar has %d duplicate digrams over %d events, slack is %d", d, len(events), slack)
	}
	if m := g.UnindexedDigrams(); m > slack {
		t.Fatalf("live grammar has %d unindexed digrams over %d events, slack is %d", m, len(events), slack)
	}
}

// FuzzChunkedParity drives arbitrary event streams and chunk sizes
// through both the reference (refBuilder) and the parallel chunked
// builder and fails on any divergence: differing chunk structure, stats,
// encodings, expansions, or a Verify failure on either side.
func FuzzChunkedParity(f *testing.F) {
	// Seeds cover the degenerate geometries: chunkSize 1 (every event its
	// own chunk), a stream shorter than one chunk, an empty stream, and a
	// repetitive stream that compresses into deep rules.
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint64(1), uint8(2))
	f.Add([]byte{9, 9, 9}, uint64(100), uint8(4))
	f.Add([]byte{}, uint64(3), uint8(1))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4}, 40), uint64(7), uint8(8))

	f.Fuzz(func(t *testing.T, data []byte, chunkSize uint64, workers uint8) {
		if chunkSize == 0 {
			chunkSize = 1
		}
		if chunkSize > 1<<20 {
			chunkSize %= 1 << 20
		}
		nw := int(workers%8) + 1
		events := make([]trace.Event, len(data))
		for i, b := range data {
			events[i] = trace.MakeEvent(uint32(b%4), uint64(b))
		}

		sb := newRefBuilder(funcNames(events), nil, chunkSize)
		pb := New(funcNames(events), nil, BuildOptions{ChunkSize: chunkSize, Workers: nw})
		for _, e := range events {
			sb.Add(e)
			pb.Add(e)
		}
		seq := sb.Finish(uint64(len(events)))
		par := pb.Finish(uint64(len(events))).(*ChunkedWPP)

		if err := seq.Verify(1); err != nil {
			t.Fatalf("reference verify: %v", err)
		}
		if err := par.Verify(nw); err != nil {
			t.Fatalf("parallel verify: %v", err)
		}
		if !reflect.DeepEqual(par.Chunks, seq.Chunks) {
			t.Fatalf("chunks diverge (chunkSize=%d workers=%d)", chunkSize, nw)
		}
		if par.Stats() != seq.Stats() {
			t.Fatalf("stats diverge: %+v vs %+v", par.Stats(), seq.Stats())
		}
		var sbuf, pbuf bytes.Buffer
		if _, err := seq.Encode(&sbuf); err != nil {
			t.Fatal(err)
		}
		if _, err := par.Encode(&pbuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sbuf.Bytes(), pbuf.Bytes()) {
			t.Fatalf("encodings diverge (chunkSize=%d workers=%d)", chunkSize, nw)
		}
		exp := make([]trace.Event, 0, len(events))
		par.Walk(func(e trace.Event) bool { exp = append(exp, e); return true })
		if !reflect.DeepEqual(exp, events) {
			t.Fatalf("expansion diverges from input (chunkSize=%d)", chunkSize)
		}
		checkLiveGrammar(t, events)
	})
}

// FuzzDecode holds Decode to its contract on arbitrary bytes, seeded
// with every golden artifact (all four formats) and its first half.
// FuzzDecodeChunked, FuzzDecodeAny and FuzzDecodeWPP2 hold Decode to the
// same contract from their own seed corpora; checkDecode is the contract.
func FuzzDecode(f *testing.F) {
	for _, s := range goldenSeeds(f) {
		f.Add(s)
		f.Add(s[:len(s)/2])
	}
	for _, s := range []string{"WPP1", "WPP2", "WPC1", "WPC2", "WPP9", ""} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecode)
}

// FuzzDecodeChunked seeds the Decode contract with a small chunked
// artifact, its bare magic, the empty file and a truncation, plus the
// committed crasher in testdata/fuzz/FuzzDecodeChunked.
func FuzzDecodeChunked(f *testing.F) {
	b := newRefBuilder([]string{"f"}, nil, 16)
	for i := 0; i < 200; i++ {
		b.Add(trace.MakeEvent(0, uint64(i%5)))
	}
	var buf bytes.Buffer
	if _, err := b.Finish(200).Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("WPC1"))
	f.Add([]byte{})
	f.Add(buf.Bytes()[:buf.Len()/2]) // truncated
	f.Fuzz(checkDecode)
}

// FuzzDecodeAny seeds the Decode contract with a monolithic and a
// chunked v1 artifact, bare and unknown magics, the empty file, and
// truncations of both containers.
func FuzzDecodeAny(f *testing.F) {
	mb := New([]string{"f"}, nil, BuildOptions{})
	cb := newRefBuilder([]string{"f"}, nil, 16)
	for i := 0; i < 200; i++ {
		e := trace.MakeEvent(0, uint64(i%5))
		mb.Add(e)
		cb.Add(e)
	}
	var mono, chunked bytes.Buffer
	if _, err := mb.Finish(200).Encode(&mono); err != nil {
		f.Fatal(err)
	}
	if _, err := cb.Finish(200).Encode(&chunked); err != nil {
		f.Fatal(err)
	}
	f.Add(mono.Bytes())
	f.Add(chunked.Bytes())
	f.Add([]byte("WPP1"))
	f.Add([]byte("WPC1"))
	f.Add([]byte("WPP9")) // unknown version
	f.Add([]byte{})
	f.Add(mono.Bytes()[:mono.Len()/2])       // truncated monolithic
	f.Add(chunked.Bytes()[:chunked.Len()/2]) // truncated chunked
	f.Fuzz(checkDecode)
}

// FuzzDecodeWPP2 seeds the Decode contract with v2 builds of the test
// streams in both containers and their halves, the golden corpus, and
// the bare v2 magics.
func FuzzDecodeWPP2(f *testing.F) {
	for _, events := range testStreams() {
		w := buildMonoFor(events)
		w.Version = FormatV2
		c := buildChunkedFor(events, 64)
		c.Version = FormatV2
		for _, a := range []Artifact{w, c} {
			var buf bytes.Buffer
			if _, err := a.Encode(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
			f.Add(buf.Bytes()[:buf.Len()/2]) // truncated
		}
	}
	for _, s := range goldenSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte("WPP2"))
	f.Add([]byte("WPC2"))
	f.Add([]byte{})
	f.Fuzz(checkDecode)
}

// checkDecode is Decode's contract on arbitrary bytes:
//   - it never panics or loops;
//   - whatever decodes and verifies walks safely, and recompressing its
//     expansion gives a grammar that satisfies the live invariants;
//   - it re-encodes, and decoding the re-encoding is a fixed point;
//   - truncating that exact encoding makes Decode fail.
func checkDecode(t *testing.T, data []byte) {
	a, err := Decode(data)
	if err != nil {
		return
	}
	// Verify rejects cyclic grammars before Walk could loop forever.
	if err := a.Verify(1); err != nil {
		return
	}
	var walked []trace.Event
	a.Walk(func(e trace.Event) bool {
		walked = append(walked, e)
		return len(walked) < 100000
	})
	// Decoded terminals can exceed MaxTerminal; checkLiveGrammar
	// clamps them.
	checkLiveGrammar(t, walked)

	var enc bytes.Buffer
	if _, err := a.Encode(&enc); err != nil {
		t.Fatalf("verified artifact fails to re-encode: %v", err)
	}
	b, err := Decode(enc.Bytes())
	if err != nil {
		t.Fatalf("re-encoded artifact fails to decode: %v", err)
	}
	var enc2 bytes.Buffer
	if _, err := b.Encode(&enc2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
		t.Fatal("re-encoding is not a fixed point")
	}
	for _, cut := range []int{enc.Len() - 1, enc.Len() / 2} {
		if _, err := Decode(enc.Bytes()[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", cut, enc.Len())
		}
	}
}
