package hotpath

import (
	"os"
	"path/filepath"
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

// FuzzViewAnalyses holds the analyses over a lazy view to "a value or an
// error, never a crash" on any bytes NewView accepts: the frequency
// fold, the grammar summary, the hot-subpath search and Verify. The full
// walk runs only on artifacts Verify accepts whose header declares at
// most 2^16 events, so every input stays cheap. Seeded with the golden
// files under 4 KB and the cyclic artifact.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := wpp.NewView(data, nil)
		if err != nil {
			return
		}
		defer v.Close()
		EventFrequencies(v, 2)
		v.Summarize(2)
		Find(v, Options{MinLen: 1, MaxLen: 4, Threshold: 0.01}, 2)
		if v.Verify(2) != nil || v.NumEvents() > 1<<16 {
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
