package hotpath

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/wpp"
)

// viewFor encodes the artifact and reopens it as a lazy view.
func viewFor(t testing.TB, a wpp.Artifact, version uint8) *wpp.ArtifactView {
	t.Helper()
	switch w := a.(type) {
	case *wpp.WPP:
		w.Version = version
	case *wpp.ChunkedWPP:
		w.Version = version
	}
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	v, err := wpp.NewView(buf.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { v.Close() })
	return v
}

// TestFindViewOracle: FindView over both view kinds and both format
// versions must agree exactly with the eager searches, across worker
// counts.
func TestFindViewOracle(t *testing.T) {
	src := `
func leaf(x) {
    if x > 2 { return x; }
    return x + 1;
}
func main(n) {
    var s = 0;
    var i = 0;
    while i < n { s = s + leaf(i); i = i + 1; }
    return s;
}`
	w, c := programBoth(t, src, 16, 40)
	opts := Options{MinLen: 2, MaxLen: 6, Threshold: 0.001}
	wantMono, err := Find(w, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantChunked, err := FindChunked(c, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantMono, wantChunked) {
		t.Fatal("eager mono and chunked searches disagree; oracle is broken")
	}
	for _, version := range []uint8{wpp.FormatV1, wpp.FormatV2} {
		for _, workers := range []int{1, 2, 4} {
			got, err := FindView(viewFor(t, w, version), opts, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantMono) {
				t.Fatalf("v%d workers=%d: FindView on mono view diverges from Find", version, workers)
			}
			got, err = FindView(viewFor(t, c, version), opts, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantChunked) {
				t.Fatalf("v%d workers=%d: FindView on chunked view diverges from FindChunked", version, workers)
			}
		}
	}
}

// TestFindViewWorkersAgree: on every committed golden artifact (all
// four formats), FindView answers identically at 1..4 workers — the
// monolithic files split into prefix shards from 2 workers on.
func TestFindViewWorkersAgree(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "experiments", "testdata", "golden", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus unavailable: %v", err)
	}
	optSets := []Options{
		{MinLen: 1, MaxLen: 6, Threshold: 0.01},
		{MinLen: 4, MaxLen: 16, Threshold: 0.005},
	}
	var found int
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		v, err := wpp.NewView(data, nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, opts := range optSets {
			var want []Subpath
			for workers := 1; workers <= 4; workers++ {
				got, err := FindView(v, opts, workers)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", path, workers, err)
				}
				if workers == 1 {
					want = got
					found += len(got)
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s min=%d max=%d: workers=%d gives %d subpaths, workers=1 %d",
						path, opts.MinLen, opts.MaxLen, workers, len(got), len(want))
				}
			}
		}
		v.Close()
	}
	if found == 0 {
		t.Fatal("no golden artifact has a hot subpath: the comparison is vacuous")
	}
}

// TestFrequenciesAndProfilesView: the frequency, path-profile, and
// function-profile analyses over a lazy view must match them over the
// eager monolithic artifact on both kinds and versions.
func TestFrequenciesAndProfilesView(t *testing.T) {
	src := `
func step(x) {
    if x > 3 { return x - 1; }
    return x + 2;
}
func main(n) {
    var s = 0;
    var i = 0;
    while i < n { s = s + step(s); i = i + 1; }
    return s;
}`
	w, c := programBoth(t, src, 8, 60)
	wantFreq := freqsOf(t, w, 1)
	if !reflect.DeepEqual(wantFreq, freqsOf(t, c, 2)) {
		t.Fatal("eager frequency oracle is broken")
	}
	wantPaths := PathProfile(w)
	wantFuncs, err := FuncProfile(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint8{wpp.FormatV1, wpp.FormatV2} {
		for _, a := range []wpp.Artifact{w, c} {
			v := viewFor(t, a, version)
			if !reflect.DeepEqual(freqsOf(t, v, 2), wantFreq) {
				t.Fatalf("v%d %T: EventFrequencies on the view diverges", version, a)
			}
			paths, err := PathProfileView(v, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(paths, wantPaths) {
				t.Fatalf("v%d %T: PathProfileView diverges", version, a)
			}
			funcs, err := FuncProfile(v, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(funcs, wantFuncs) {
				t.Fatalf("v%d %T: FuncProfile on the view diverges", version, a)
			}
		}
	}
}

// TestCompareSpectraView: the comparison over views must match the
// eager monolithic comparison chunked-vs-chunked and mixed as well.
func TestCompareSpectraView(t *testing.T) {
	srcA := `
func main(n) {
    var s = 0;
    var i = 0;
    while i < n {
        if i > 5 { s = s + 2; } else { s = s + 1; }
        i = i + 1;
    }
    return s;
}`
	srcB := `
func main(n) {
    var s = 0;
    var i = 0;
    while i < n {
        if i > 8 { s = s + 2; } else { s = s + 1; }
        i = i + 1;
    }
    return s;
}`
	wa, ca := programBoth(t, srcA, 8, 30)
	wb, cb := programBoth(t, srcB, 8, 30)
	want := spectraOf(t, wa, wb)
	combos := [][2]wpp.Artifact{{wa, wb}, {ca, cb}, {wa, cb}, {ca, wb}}
	for _, combo := range combos {
		got, err := CompareSpectra(viewFor(t, combo[0], wpp.FormatV2), viewFor(t, combo[1], wpp.FormatV1), 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T vs %T: CompareSpectra on views diverges from eager comparison", combo[0], combo[1])
		}
	}
}

// TestFindViewConcurrentReuse: four goroutines search every golden
// artifact, each in its own shuffled order and at 1 and 2 workers, so
// their window counts run on tries other searches released, at the same
// time; every answer must equal the artifact's one-shot answer.
func TestFindViewConcurrentReuse(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "experiments", "testdata", "golden", "*"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("golden corpus unavailable: %v", err)
	}
	opts := []Options{
		{MinLen: 1, MaxLen: 6, Threshold: 0.01},
		{MinLen: 4, MaxLen: 16, Threshold: 0.005},
	}
	data := make([][]byte, len(paths))
	want := make([][][]Subpath, len(paths)) // [artifact][option set]
	for i, path := range paths {
		if data[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		v, err := wpp.NewView(data[i], nil)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, o := range opts {
			got, err := FindView(v, o, 1)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			want[i] = append(want[i], got)
		}
		v.Close()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for _, workers := range []int{1, 2} {
				for _, i := range rng.Perm(len(paths)) {
					v, err := wpp.NewView(data[i], nil)
					if err != nil {
						t.Errorf("%s: %v", paths[i], err)
						return
					}
					for k, o := range opts {
						got, err := FindView(v, o, workers)
						if err != nil {
							t.Errorf("%s: %v", paths[i], err)
						} else if !reflect.DeepEqual(got, want[i][k]) {
							t.Errorf("goroutine %d: %s min=%d max=%d workers=%d: %d subpaths, one-shot %d",
								g, paths[i], o.MinLen, o.MaxLen, workers, len(got), len(want[i][k]))
						}
					}
					v.Close()
				}
			}
		}()
	}
	wg.Wait()
}
