package hotpath

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/obsv"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// scanCounts counts the windows of each length minLen..maxLen by sliding
// over the raw event stream, keyed by the 8-byte big-endian encodings of
// their events; entry l-minLen holds length l.
func scanCounts(events []uint64, minLen, maxLen int) []map[string]uint64 {
	out := make([]map[string]uint64, maxLen-minLen+1)
	for l := minLen; l <= maxLen; l++ {
		m := map[string]uint64{}
		for i := 0; i+l <= len(events); i++ {
			m[keyOf(events[i:i+l])]++
		}
		out[l-minLen] = m
	}
	return out
}

func keyOf(window []uint64) string {
	var key []byte
	for _, v := range window {
		key = binary.BigEndian.AppendUint64(key, v)
	}
	return string(key)
}

// trieCounts reads the same per-length maps off a counted trie.
func trieCounts(tr *engine.WindowTrie, minLen, maxLen int) []map[string]uint64 {
	out := make([]map[string]uint64, maxLen-minLen+1)
	for i := range out {
		out[i] = map[string]uint64{}
	}
	for n := 1; n < tr.Len(); n++ {
		d := int(tr.Depth[n])
		if d >= minLen && d <= maxLen && tr.Count[n] != 0 {
			out[d-minLen][keyOf(tr.Window(uint32(n), nil))] = tr.Count[n]
		}
	}
	return out
}

// chunkSnapshots compresses events into one grammar per chunkSize events.
func chunkSnapshots(events []uint64, chunkSize int) engine.SliceSource {
	var src engine.SliceSource
	for lo := 0; lo < len(events); lo += chunkSize {
		g := sequitur.New()
		g.AppendBatch(events[lo:min(len(events), lo+chunkSize)])
		src = append(src, g.Snapshot())
	}
	return src
}

// checkWindowParity compares the unpruned countWindows on src against
// want, the scan counts for every length of opts.
func checkWindowParity(t *testing.T, label string, src engine.Source, want []map[string]uint64, opts Options, workers int) {
	t.Helper()
	tr, err := countWindows(src, workers, pass{minLen: opts.MinLen, maxLen: opts.MaxLen}, noopMetrics)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if tr == nil {
		for _, m := range want {
			if len(m) != 0 {
				t.Fatalf("%s: no trie for a non-empty trace", label)
			}
		}
		return
	}
	got := trieCounts(tr, opts.MinLen, opts.MaxLen)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: length %d: trie has %d distinct windows, scan %d", label, opts.MinLen+i, len(got[i]), len(want[i]))
		}
	}
}

// checkPartsSum checks that the parts of one grammar's window count,
// at 1..maxParts parts, sum to its one-part count, the unpruned count of
// every window.
func checkPartsSum(t *testing.T, label string, sn *sequitur.Snapshot, opts Options, maxParts int) {
	t.Helper()
	a := engine.NewAnalysis(sn)
	want := trieCounts(a.CountWindowPart(opts.MinLen, opts.MaxLen, nil, 0, 1), opts.MinLen, opts.MaxLen)
	for parts := 1; parts <= maxParts; parts++ {
		sum := engine.NewWindowTrie()
		for s := 0; s < parts; s++ {
			sum.Merge(a.CountWindowPart(opts.MinLen, opts.MaxLen, nil, s, parts))
		}
		if got := trieCounts(sum, opts.MinLen, opts.MaxLen); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the counts of %d parts do not sum to the one-part count", label, parts)
		}
	}
}

// TestWindowCountParityOnWorkloads checks the window trie against the
// scan on every bundled workload: monolithic and chunked (the 256-event
// chunks of the equivalence suite, and 7-event chunks so MaxLen exceeds
// the chunk length), at 1, 2 and 4 workers, for MinLen 1, MinLen ==
// MaxLen, and a long MaxLen.
func TestWindowCountParityOnWorkloads(t *testing.T) {
	optSets := []Options{
		{MinLen: 1, MaxLen: 6},
		{MinLen: 5, MaxLen: 5},
		{MinLen: 3, MaxLen: 12},
	}
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, cw := workloadBoth(t, name)
			var events []uint64
			w.Walk(func(e trace.Event) bool { events = append(events, uint64(e)); return true })
			sources := []struct {
				label string
				src   engine.Source
			}{
				{"mono", engine.SliceSource{w.Grammar}},
				{"chunk256", engine.SliceSource(cw.Chunks)},
				{"chunk7", chunkSnapshots(events, 7)},
			}
			for _, opts := range optSets {
				want := scanCounts(events, opts.MinLen, opts.MaxLen)
				for _, s := range sources {
					for _, workers := range []int{1, 2, 4} {
						label := fmt.Sprintf("%s min=%d max=%d workers=%d", s.label, opts.MinLen, opts.MaxLen, workers)
						checkWindowParity(t, label, s.src, want, opts, workers)
					}
				}
			}
		})
	}
}

// FuzzWindowCountParity checks the window trie against the scan on a
// fuzzer-chosen small-alphabet stream, chunk size, length range and
// worker count. The monolithic stream runs at one worker and at 2-4,
// where its rule bodies split into parts, whose counts must also sum to the
// one-part count; the chunked stream, when it has at most 64 chunks,
// runs at 2-4 workers per chunk, so each chunk's rule bodies split too.
func FuzzWindowCountParity(f *testing.F) {
	f.Add([]byte("abcabcabdabcabcabd"), uint8(4), uint8(2), uint8(6), uint8(0))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaaaaaaab"), uint8(3), uint8(1), uint8(9), uint8(1))
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3, 3, 2, 1, 0}, uint8(0), uint8(4), uint8(4), uint8(2))
	f.Add([]byte("x"), uint8(1), uint8(1), uint8(1), uint8(0))
	f.Add([]byte("abcdabcdabcdabceabcdabcdabcdabce"), uint8(12), uint8(0), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, chunk, minLen, span, extra uint8) {
		if len(raw) > 2000 {
			return
		}
		events := make([]uint64, len(raw))
		for i, b := range raw {
			events[i] = uint64(b % 4)
		}
		opts := Options{MinLen: int(minLen%8) + 1, Threshold: 0.5}
		opts.MaxLen = opts.MinLen + int(span%14)
		want := scanCounts(events, opts.MinLen, opts.MaxLen)
		workers := 2 + int(extra%3)
		// One chunk holding the whole stream (none if it is empty).
		mono := chunkSnapshots(events, len(events)+1)
		checkWindowParity(t, "mono", mono, want, opts, 1)
		checkWindowParity(t, fmt.Sprintf("mono workers=%d", workers), mono, want, opts, workers)
		if len(mono) > 0 {
			checkPartsSum(t, "mono", mono[0], opts, workers)
		}
		if chunk > 0 {
			src := chunkSnapshots(events, int(chunk))
			// workers per chunk when there are few chunks; 2 when there
			// are too many to give each its own goroutines.
			cw := 2
			if len(src) <= 64 {
				cw = workers * len(src)
			}
			checkWindowParity(t, fmt.Sprintf("chunk%d workers=%d", chunk, cw), src, want, opts, cw)
		}
	})
}

// TestStageMetrics checks that a search reports the distinct windows of
// the tries its two passes build, fewer than the unpruned count holds,
// and one observation per stage.
func TestStageMetrics(t *testing.T) {
	_, cw := workloadBoth(t, "expr")
	reg := obsv.NewRegistry()
	met := NewMetrics(reg)
	opts := Options{MinLen: 2, MaxLen: 6, Threshold: 0.01, Metrics: met}
	if _, err := FindChunked(cw, opts, 2); err != nil {
		t.Fatal(err)
	}
	distinct := func(tries ...*engine.WindowTrie) uint64 {
		var n uint64
		for _, tr := range tries {
			for i := 1; i < tr.Len(); i++ {
				if int(tr.Depth[i]) >= opts.MinLen && tr.Count[i] != 0 {
					n++
				}
			}
		}
		return n
	}
	tries, err := countPasses(cw, Options{MinLen: 2, MaxLen: 6, Threshold: 0.01}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := distinct(tries...)
	full, err := countWindows(cw, 2, pass{minLen: 2, maxLen: 6}, noopMetrics)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("the two passes hold %d distinct windows, the unpruned count %d", want, distinct(full))
	if got := met.WindowsDistinct.Value(); got != want || got == 0 {
		t.Fatalf("hotpath_windows_distinct_total = %d, want %d", got, want)
	}
	if want >= distinct(full) {
		t.Fatalf("the two passes hold %d distinct windows, no fewer than the unpruned count's %d", want, distinct(full))
	}
	if got, want := met.CountSeconds.Count(), uint64(len(cw.Chunks)); got != want {
		t.Fatalf("pass-2 count stage observed %d times, want one per chunk (%d)", got, want)
	}
	if met.Pass1Seconds.Count() != 1 || met.SeamSeconds.Count() != 1 || met.HarvestSeconds.Count() != 1 {
		t.Fatalf("pass1/seam/harvest stages observed %d/%d/%d times, want 1/1/1", met.Pass1Seconds.Count(), met.SeamSeconds.Count(), met.HarvestSeconds.Count())
	}
}
