package hotpath

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/trace"
	"repro/internal/wpp"
)

// cyclicWPP1 is a well-framed WPP1 artifact whose rule 1 expands to
// event 0 followed by rule 1 itself: it opens, but no expansion of it
// terminates.
var cyclicWPP1 = []byte{
	'W', 'P', 'P', '1', 1, 1, 'f', 0, 8, 8, 2, 0, 1, 1, 1,
	'S', 'Q', 'G', '1', 2, 2, 3, 3, 2, 0, 3,
}

// The target's allocation bound on n input bytes is
// analysisAllocPerByte*n + analysisAllocSlack: the bound checkDecode
// holds Decode to (decodeAllocPerByte and decodeAllocSlack in
// internal/wpp's tests, which another package's tests cannot name).
const (
	analysisAllocPerByte = 64
	analysisAllocSlack   = 1 << 20
)

// viewAnalyses are the analyses FuzzViewAnalyses asks of one view, in
// order: each answer is a value or an error.
var viewAnalyses = []struct {
	name string
	ask  func(v *wpp.ArtifactView) (any, error)
}{
	{"EventFrequencies", func(v *wpp.ArtifactView) (any, error) { return EventFrequencies(v, 2) }},
	{"Stats", func(v *wpp.ArtifactView) (any, error) { return v.Stats(2) }},
	{"Find", func(v *wpp.ArtifactView) (any, error) {
		return Find(v, Options{MinLen: 1, MaxLen: 4, Threshold: 0.01}, 2)
	}},
	{"Verify", func(v *wpp.ArtifactView) (any, error) { return nil, v.Verify(2) }},
}

// FuzzViewAnalyses holds the analyses over a lazy view to "a value or an
// error, never a crash" on any bytes NewView accepts: the event
// frequencies, the grammar summary, the hot-subpath search and Verify,
// asked in turn of one view, which shares its chunks among them. Each
// answer must equal the answer of a fresh view of the same bytes, or
// fail with the same error, and the open and the four analyses on the
// shared view are held to Decode's allocation bound. The full walk runs
// only on artifacts Verify accepts whose header declares at most 2^16
// events, so every input stays cheap. Seeded with the golden files under
// 4 KB, the cyclic artifact and the artifact whose expansion length
// overflows 64 bits.
func FuzzViewAnalyses(f *testing.F) {
	dir := filepath.Join("..", "experiments", "testdata", "golden")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			f.Fatal(err)
		}
		if len(data) < 4096 {
			f.Add(data)
		}
	}
	f.Add(cyclicWPP1)
	overflow, err := os.ReadFile(filepath.Join("..", "wpp", "testdata", "overflow65.wpp1"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(overflow)

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		v, err := wpp.NewView(data, nil)
		if err != nil {
			return
		}
		defer v.Close()
		shared := make([]any, len(viewAnalyses))
		errs := make([]error, len(viewAnalyses))
		for k, a := range viewAnalyses {
			shared[k], errs[k] = a.ask(v)
		}
		runtime.ReadMemStats(&after)
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, analysisAllocPerByte*uint64(len(data))+analysisAllocSlack; alloc > bound {
			t.Fatalf("NewView and the analyses of %d bytes allocated %d bytes, over the bound of %d", len(data), alloc, bound)
		}
		for k, a := range viewAnalyses {
			fresh, err := wpp.NewView(data, nil)
			if err != nil {
				t.Fatalf("second open failed: %v", err)
			}
			got, err := a.ask(fresh)
			fresh.Close()
			if fmt.Sprint(err) != fmt.Sprint(errs[k]) || !reflect.DeepEqual(got, shared[k]) {
				t.Fatalf("%s on the shared view answers %v, %v; on a fresh view %v, %v", a.name, shared[k], errs[k], got, err)
			}
		}
		if verifyErr := errs[3]; verifyErr != nil || v.NumEvents() > 1<<16 {
			return
		}
		var n uint64
		if err := v.Walk(func(trace.Event) bool { n++; return true }); err != nil {
			t.Fatalf("Walk failed on a verified artifact: %v", err)
		}
		if n != v.NumEvents() {
			t.Fatalf("Walk yielded %d events, verified header says %d", n, v.NumEvents())
		}
	})
}
