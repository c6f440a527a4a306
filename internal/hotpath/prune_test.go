package hotpath

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/wpp"
)

// encodeArtifact hand-encodes an artifact of one function "main" whose
// path i is event trace.MakeEvent(0, i), priced costs[i]: a WPP1 holding
// the grammar of the path stream ids when chunk is 0, else a WPC1 holding
// one grammar per chunk paths.
func encodeArtifact(ids, costs []uint64, instructions uint64, chunk int) []byte {
	step := chunk
	if step == 0 {
		step = max(len(ids), 1)
	}
	var grammars []*sequitur.Snapshot
	for lo := 0; lo < max(len(ids), 1); lo += step { // an empty stream gets one empty grammar
		g := sequitur.New()
		for _, id := range ids[lo:min(len(ids), lo+step)] {
			g.Append(uint64(trace.MakeEvent(0, id)))
		}
		grammars = append(grammars, g.Snapshot())
	}
	var buf bytes.Buffer
	put := func(vs ...uint64) {
		for _, v := range vs {
			buf.Write(binary.AppendUvarint(nil, v))
		}
	}
	funcs := []uint64{1, 4, 'm', 'a', 'i', 'n', uint64(len(costs))}
	if chunk == 0 {
		buf.WriteString("WPP1")
		put(funcs...)
		put(uint64(len(ids)), instructions)
	} else {
		buf.WriteString("WPC1")
		put(funcs...)
		put(uint64(chunk), uint64(len(ids)), instructions, 0) // no peak live RHS
	}
	put(uint64(len(costs)))
	for i, c := range costs {
		put(uint64(trace.MakeEvent(0, uint64(i))), c)
	}
	if chunk > 0 {
		put(uint64(len(grammars)))
	}
	enc := buf.Bytes()
	for _, sn := range grammars {
		enc, _ = sn.AppendEncoding(enc, nil)
	}
	return enc
}

// costOverflowFile is a committed copy of costOverflowArtifact's bytes,
// for the command-line tests.
var costOverflowFile = filepath.Join("testdata", "costoverflow.wpp1")

// costOverflowArtifact is a WPP1 of the path stream a a a a, whose one
// path costs 2^62 instructions, in an execution of 2^63 instructions.
// Window a occurs 4 times, so its cost is 2^64, and a a occurs 3 times,
// at 1.5 x 2^64: both overflow a uint64, and wrapped they read 0 and
// 2^63.
func costOverflowArtifact() []byte {
	return encodeArtifact([]uint64{0, 0, 0, 0}, []uint64{1 << 62}, 1<<63, 0)
}

// TestCostOverflowRejected: a trace whose total path cost does not fit in
// 64 bits fails Verify(1), on the view and on the decoded WPP, with a
// diagnostic naming the path-cost total. Its minimal hot subpaths' costs
// overflow too, so Find, on the view and on the decoded WPP, and
// FindByScan fail with ErrCostOverflow instead of dropping them or
// reporting a wrapped cost.
func TestCostOverflowRejected(t *testing.T) {
	data := costOverflowArtifact()
	if committed, err := os.ReadFile(costOverflowFile); err != nil || !bytes.Equal(committed, data) {
		t.Fatalf("%s is missing or stale (%v); rewrite it from costOverflowArtifact", costOverflowFile, err)
	}
	v, err := wpp.NewView(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	a, err := wpp.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	w := a.(*wpp.WPP)
	for name, art := range map[string]interface{ Verify(int) error }{"view": v, "WPP": w} {
		if err := art.Verify(1); err == nil || !strings.Contains(err.Error(), "total path cost overflows 64 bits") {
			t.Errorf("Verify(1) on the %s = %v, want a path-cost overflow", name, err)
		}
	}
	for _, opts := range []Options{
		{MinLen: 1, MaxLen: 2, Threshold: 0.5},
		{MinLen: 2, MaxLen: 4, Threshold: 0.01}, // the wpphot defaults but for the lengths
	} {
		for _, workers := range []int{1, 2} {
			if got, err := Find(v, opts, workers); !errors.Is(err, ErrCostOverflow) {
				t.Errorf("%+v: Find on the view at %d workers = %v, %v; want ErrCostOverflow", opts, workers, render(got), err)
			}
			if got, err := Find(w, opts, workers); !errors.Is(err, ErrCostOverflow) {
				t.Errorf("%+v: Find on the WPP at %d workers = %v, %v; want ErrCostOverflow", opts, workers, render(got), err)
			}
		}
		if got, err := FindByScan(w, opts); !errors.Is(err, ErrCostOverflow) {
			t.Errorf("%+v: FindByScan = %v, %v; want ErrCostOverflow", opts, render(got), err)
		}
	}
}

// scanCost maps a fuzzer byte to a path cost: small costs mostly, and
// powers of two up to 2^63 for the bytes 192..255, so window costs and
// the pruning bound both overflow.
func scanCost(b byte) uint64 {
	if b < 192 {
		return uint64(b)
	}
	return 1 << (b - 192)
}

// FuzzFindMatchesScan checks Find against FindByScan on a fuzzer-chosen
// path stream, per-path cost table, length range, threshold and chunk
// size: a monolithic view and a chunked view of the same stream, each at
// one and two workers, must give the scan's subpaths exactly, or fail
// with ErrCostOverflow where it does. The execution's instruction count
// is the stream's total cost, wrapped, so huge costs give hot windows
// whose costs overflow.
func FuzzFindMatchesScan(f *testing.F) {
	f.Add([]byte("abcabcabdabcabcabd"), []byte{1, 2, 3, 4}, uint8(1), uint8(6), uint8(4), uint16(100))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaab"), []byte{1, 200}, uint8(0), uint8(9), uint8(3), uint16(10))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0}, []byte{255, 254, 1, 0}, uint8(2), uint8(4), uint8(1), uint16(499))
	f.Add([]byte("abcdabcdabcdabceabcdabcdabcdabce"), []byte{5, 1, 90, 1, 7}, uint8(3), uint8(7), uint8(12), uint16(5))
	f.Add([]byte{0, 0, 0, 0}, []byte{254}, uint8(0), uint8(1), uint8(0), uint16(499))
	// Paths a b c a b at 2^61 each, MinLen 1, threshold 0.5: a b is the
	// one minimal hot window. The pruning bound for the first a, count 2
	// times the unit cost 5 x 2^61, overflows to 2^62 mod 2^64, below the
	// floor; cutting on it would miss that a b occurrence.
	f.Add([]byte{0, 1, 2, 0, 1}, []byte{253, 253, 253}, uint8(0), uint8(4), uint8(2), uint16(499))
	f.Fuzz(func(t *testing.T, raw, costBytes []byte, minLen, span, chunk uint8, thr uint16) {
		if len(raw) > 1000 || len(costBytes) == 0 {
			return
		}
		costs := make([]uint64, min(len(costBytes), 8))
		for i := range costs {
			costs[i] = scanCost(costBytes[i])
		}
		ids := make([]uint64, len(raw))
		var instructions uint64
		for i, b := range raw {
			ids[i] = uint64(b) % uint64(len(costs))
			instructions += costs[ids[i]]
		}
		opts := Options{MinLen: int(minLen%6) + 1, Threshold: float64(thr%1000+1) / 1000}
		opts.MaxLen = opts.MinLen + int(span%10)
		mono := encodeArtifact(ids, costs, instructions, 0)
		a, err := wpp.Decode(mono)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		want, wantErr := FindByScan(a.(*wpp.WPP), opts)
		if wantErr != nil && !errors.Is(wantErr, ErrCostOverflow) {
			t.Fatalf("FindByScan: %v", wantErr)
		}
		for _, c := range []int{0, int(chunk%32) + 1} {
			v, err := wpp.NewView(encodeArtifact(ids, costs, instructions, c), nil)
			if err != nil {
				t.Fatalf("chunk %d: open: %v", c, err)
			}
			for _, workers := range []int{1, 2} {
				label := fmt.Sprintf("chunk %d workers %d opts %+v", c, workers, opts)
				got, err := Find(v, opts, workers)
				switch {
				case wantErr != nil && !errors.Is(err, ErrCostOverflow):
					t.Fatalf("%s: Find = %v, %v; FindByScan fails with %v", label, render(got), err, wantErr)
				case wantErr == nil && err != nil:
					t.Fatalf("%s: Find fails with %v; FindByScan gives %v", label, err, render(want))
				case !reflect.DeepEqual(got, want):
					t.Fatalf("%s:\n Find %v\n scan %v", label, render(got), render(want))
				}
			}
			v.Close()
		}
	})
}

// TestPrunedCountsExact checks, on every bundled workload, monolithic and
// chunked, that each hot window of the two passes has exactly the count
// the unpruned count gives it, and that the passes find every minimal hot
// window of the unpruned count.
func TestPrunedCountsExact(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			mono, chunked := workloadBoth(t, name)
			for _, src := range []Source{mono, chunked} {
				for _, opts := range []Options{
					{MinLen: 4, MaxLen: 16, Threshold: 0.01},
					{MinLen: 2, MaxLen: 12, Threshold: 0.002},
				} {
					label := fmt.Sprintf("%d chunks, %+v", src.NumChunks(), opts)
					tries, err := countPasses(src, opts, 2)
					if err != nil {
						t.Fatal(err)
					}
					full, err := countWindows(src, 2, pass{minLen: opts.MinLen, maxLen: opts.MaxLen}, noopMetrics)
					if err != nil {
						t.Fatal(err)
					}
					want := trieCounts(full, opts.MinLen, opts.MaxLen)
					var hot []hotWindow
					for _, tr := range tries {
						h, _ := hotWindows(tr, opts, src)
						hot = append(hot, h...)
					}
					for _, h := range hot {
						if w := want[len(h.key)/8-opts.MinLen][h.key]; h.count != w {
							t.Fatalf("%s: hot window %v counted %d times, unpruned %d", label, decodeKey(h.key), h.count, w)
						}
					}
					fullHot, _ := hotWindows(full, opts, src)
					wantMin, err := minimal(fullHot, opts.MinLen)
					if err != nil {
						t.Fatal(err)
					}
					gotMin, err := minimal(hot, opts.MinLen)
					if err != nil {
						t.Fatal(err)
					}
					sortSubpaths(wantMin)
					sortSubpaths(gotMin)
					if len(wantMin) == 0 || !reflect.DeepEqual(gotMin, wantMin) {
						t.Fatalf("%s: %d minimal hot windows, unpruned %d", label, len(gotMin), len(wantMin))
					}
				}
			}
		})
	}
}
