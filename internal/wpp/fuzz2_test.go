package wpp

// Fuzzer for the v2 cost table, which must round-trip every
// representable table through the encoder, the sizer and the view's
// header parse, and the golden seed loader the decode fuzzers share.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sequitur"
	"repro/internal/trace"
)

// goldenSeeds loads the committed golden corpus (all four formats,
// internal/experiments/testdata/golden) as fuzzer seed inputs, so
// fuzzing starts from real archived artifacts rather than only from
// synthetic streams.
func goldenSeeds(f *testing.F) [][]byte {
	f.Helper()
	dir := filepath.Join("..", "experiments", "testdata", "golden")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("golden corpus unavailable (regenerate with go test ./internal/experiments -run TestGoldenCorpus -update): %v", err)
	}
	var seeds [][]byte
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	if len(seeds) == 0 {
		f.Fatal("golden corpus is empty")
	}
	return seeds
}

// FuzzVarintRoundTrip drives the delta-packed cost table with arbitrary
// event/cost material: the encoding must be read back exactly, its size
// must match EncodedSize, and the reconstructed dictionary must come
// back sorted.
func FuzzVarintRoundTrip(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 0}, uint64(1))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{255, 255, 255, 255, 7, 7, 7}, uint64(1<<40))
	// Golden-artifact bytes as raw event/cost material: real archived
	// encodings exercise value spreads synthetic seeds miss.
	for _, s := range goldenSeeds(f) {
		if len(s) > 256 {
			s = s[:256]
		}
		f.Add(s, uint64(len(s)))
	}

	f.Fuzz(func(t *testing.T, data []byte, costSeed uint64) {
		// Derive a valid table: distinct in-range events with arbitrary
		// costs. Pairs of bytes widen the value spread across function
		// and path bits.
		costs := map[trace.Event]uint64{}
		for i := 0; i+1 < len(data); i += 2 {
			e := trace.MakeEvent(uint32(data[i]), uint64(data[i+1])<<(data[i]%24))
			costs[e] = costSeed >> (data[i] % 16)
		}
		dict := sortedCostEvents(costs)

		// An empty grammar isolates the table: it is the only part of
		// the encoding the material changes.
		w := &WPP{Grammar: &sequitur.Snapshot{Rules: [][]sequitur.Sym{nil}}, Version: FormatV2, costs: costs}
		var buf bytes.Buffer
		if _, err := w.Encode(&buf); err != nil {
			t.Fatalf("encoding valid table: %v", err)
		}

		v, err := NewView(buf.Bytes(), nil)
		if err != nil {
			t.Fatalf("decoding round trip: %v", err)
		}
		gotDict, gotCosts := v.dict, v.costs
		if !sort.SliceIsSorted(gotDict, func(i, j int) bool { return gotDict[i] < gotDict[j] }) {
			t.Fatal("decoded dictionary not sorted")
		}
		if len(gotDict) != len(dict) {
			t.Fatalf("dictionary length %d, want %d", len(gotDict), len(dict))
		}
		for i := range dict {
			if gotDict[i] != dict[i] {
				t.Fatalf("dictionary entry %d = %v, want %v", i, gotDict[i], dict[i])
			}
		}
		if len(gotCosts) != len(costs) && !(len(costs) == 0 && len(gotCosts) == 0) {
			t.Fatalf("cost map size %d, want %d", len(gotCosts), len(costs))
		}
		if len(costs) > 0 && !reflect.DeepEqual(gotCosts, costs) {
			t.Fatalf("cost maps diverge")
		}
	})
}
