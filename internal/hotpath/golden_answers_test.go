package hotpath

// The golden answers pin Find's output on the committed golden artifact
// corpus (internal/experiments/testdata/golden): every minimal hot
// subpath, with its events, count, cost and fraction, of every artifact
// at two option sets. A change to the search that alters any answer on
// any of the four formats fails TestGoldenAnswers. Regenerate with
//
//	go test ./internal/hotpath -run TestGoldenAnswers -update
//
// and review the diff as a deliberate change of the search's results.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wpp"
)

var updateAnswers = flag.Bool("update", false, "rewrite the golden hot-subpath answers from fresh searches")

var goldenAnswersFile = filepath.Join("testdata", "golden_answers.txt")

// goldenAnswerOpts are the option sets the golden answers pin: wide
// windows at a high threshold, and wpphot's lengths at a low one.
var goldenAnswerOpts = []Options{
	{MinLen: 1, MaxLen: 6, Threshold: 0.01},
	{MinLen: 4, MaxLen: 16, Threshold: 0.005},
}

// goldenAnswers renders Find's answers on every golden artifact and
// option set, one header line per search and one line per subpath, from
// a search on the given number of workers.
func goldenAnswers(t *testing.T, paths []string, workers int) string {
	t.Helper()
	var b strings.Builder
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		v, err := wpp.NewView(data, nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, opts := range goldenAnswerOpts {
			got, err := Find(v, opts, workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", path, workers, err)
			}
			fmt.Fprintf(&b, "%s min=%d max=%d threshold=%v: %d subpath(s)\n",
				filepath.Base(path), opts.MinLen, opts.MaxLen, opts.Threshold, len(got))
			for _, sp := range got {
				fmt.Fprintf(&b, "  count=%d cost=%d fraction=%v events=%v\n", sp.Count, sp.Cost, sp.Fraction, sp.Events)
			}
		}
		v.Close()
	}
	return b.String()
}

// TestGoldenAnswers: Find on every golden artifact, at 1 and 2 workers,
// gives exactly the committed answers.
func TestGoldenAnswers(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "experiments", "testdata", "golden", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus unavailable: %v", err)
	}
	if *updateAnswers {
		if err := os.WriteFile(goldenAnswersFile, []byte(goldenAnswers(t, paths, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenAnswersFile)
	if err != nil {
		t.Fatalf("missing golden answers (regenerate with -update): %v", err)
	}
	for _, workers := range []int{1, 2} {
		got := goldenAnswers(t, paths, workers)
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < min(len(gl), len(wl)); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("workers=%d: answers differ from %s at line %d:\n got  %s\n want %s", workers, goldenAnswersFile, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("workers=%d: answers have %d lines, %s has %d", workers, len(gl), goldenAnswersFile, len(wl))
	}
}
