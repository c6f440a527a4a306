package wpp

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

func chunkedDemo(t *testing.T, args []int64, copts ChunkedOptions) (*Profile, *Profile) {
	t.Helper()
	p, err := Compile(demo)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := p.Profile(args)
	if err != nil {
		t.Fatal(err)
	}
	cprof, err := p.ProfileChunked(args, copts)
	if err != nil {
		t.Fatal(err)
	}
	return prof, cprof
}

func TestProfileChunkedMatchesProfile(t *testing.T) {
	for _, copts := range []ChunkedOptions{
		{ChunkSize: 1, Workers: 2},
		{ChunkSize: 64, Workers: 1},
		{ChunkSize: 64, Workers: 8},
		{ChunkSize: 1 << 20, Workers: 0},
	} {
		prof, cprof := chunkedDemo(t, []int64{80}, copts)
		if cprof.Result != prof.Result {
			t.Fatalf("%+v: result %d != %d", copts, cprof.Result, prof.Result)
		}
		if cprof.Events() != prof.Events() {
			t.Fatalf("%+v: events %d != %d", copts, cprof.Events(), prof.Events())
		}
		if cprof.Instructions() != prof.Stats.Instructions {
			t.Fatalf("%+v: instructions diverge", copts)
		}
		if err := cprof.Verify(); err != nil {
			t.Fatal(err)
		}

		// Walks must agree event for event.
		var a, b []string
		prof.Walk(func(fn string, id uint64) bool { a = append(a, fmt.Sprintf("%s:%d", fn, id)); return true })
		cprof.Walk(func(fn string, id uint64) bool { b = append(b, fmt.Sprintf("%s:%d", fn, id)); return true })
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%+v: walks diverge (%d vs %d events)", copts, len(a), len(b))
		}

		// Hot-subpath analysis must produce the monolithic answer,
		// LoopDepth annotation included.
		hopts := HotOptions{MinLen: 2, MaxLen: 8, Threshold: 0.05}
		want, err := prof.HotSubpaths(hopts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := cprof.HotSubpaths(hopts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: hot subpaths diverge:\n chunked=%+v\n mono=%+v", copts, got, want)
		}
		if len(got) == 0 {
			t.Fatal("hot loop produced no hot subpaths")
		}

		// The call tree, the spectra and the build report work on
		// either container.
		rootM, edgesM, err := prof.CallTree()
		if err != nil {
			t.Fatal(err)
		}
		rootC, edgesC, err := cprof.CallTree()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rootC, rootM) || !reflect.DeepEqual(edgesC, edgesM) {
			t.Fatalf("%+v: call trees diverge", copts)
		}
		if d := cprof.CompareSpectra(prof); len(d) != 0 {
			t.Fatalf("%+v: spectra of the same run differ: %v", copts, d)
		}
		if prof.Report() == nil || cprof.Report() == nil || cprof.Report().Events != cprof.Events() {
			t.Fatalf("%+v: build reports %v, %v", copts, prof.Report(), cprof.Report())
		}
	}
}

func TestChunkedSizeAndPeak(t *testing.T) {
	_, cprof := chunkedDemo(t, []int64{200}, ChunkedOptions{ChunkSize: 50, Workers: 2})
	sz := cprof.Size()
	if sz.Events == 0 || sz.Chunks < 2 || sz.Rules == 0 || sz.GrammarBytes == 0 {
		t.Fatalf("degenerate size %+v", sz)
	}
	if sz.PeakLiveRHS == 0 {
		t.Fatal("peak live RHS not recorded")
	}
	if s := sz.String(); s == "" {
		t.Fatal("empty Size.String")
	}
}

func TestChunkedPathFrequencies(t *testing.T) {
	prof, cprof := chunkedDemo(t, []int64{60}, ChunkedOptions{ChunkSize: 37, Workers: 4})
	freqs := cprof.PathFrequencies()
	if len(freqs) == 0 {
		t.Fatal("no path frequencies")
	}
	var total uint64
	for i, f := range freqs {
		total += f.Count
		if i > 0 && f.Count > freqs[i-1].Count {
			t.Fatal("frequencies not sorted")
		}
	}
	if total != prof.Events() {
		t.Fatalf("frequency total %d != %d events", total, prof.Events())
	}
}

func TestChunkedOptionsValidation(t *testing.T) {
	p, err := Compile(demo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ProfileChunked([]int64{5}, ChunkedOptions{ChunkSize: 0}); err == nil {
		t.Fatal("zero chunk size accepted")
	}
}

func TestChunkedRunError(t *testing.T) {
	loop, err := Compile(`func main() { var i = 0; while i >= 0 { i = i + 1; } return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	// The pipeline must drain cleanly when the traced run aborts.
	if _, err := loop.ProfileChunked(nil, ChunkedOptions{ChunkSize: 16, Workers: 4}, WithMaxInstrs(5000)); err == nil {
		t.Fatal("runaway chunked profile not aborted")
	}
}

func TestChunkedPersistRoundTrip(t *testing.T) {
	_, cprof := chunkedDemo(t, []int64{100}, ChunkedOptions{ChunkSize: 64, Workers: 2})
	var buf bytes.Buffer
	if _, err := cprof.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Events() != cprof.Events() || back.Instructions() != cprof.Instructions() {
		t.Fatal("header fields lost in round trip")
	}
	var a, b []string
	cprof.Walk(func(fn string, id uint64) bool { a = append(a, fmt.Sprintf("%s:%d", fn, id)); return true })
	back.Walk(func(fn string, id uint64) bool { b = append(b, fmt.Sprintf("%s:%d", fn, id)); return true })
	if !reflect.DeepEqual(a, b) {
		t.Fatal("walk diverges after round trip")
	}
	// Loaded profiles keep the cost table, so hot-subpath analysis still
	// works (LoopDepth falls back to 0 without numberings).
	hot, err := back.HotSubpaths(HotOptions{MinLen: 2, MaxLen: 6, Threshold: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 {
		t.Fatal("loaded chunked profile found no hot subpaths")
	}
}

// TestReadProfileFormats reads both containers in both encodings
// through ReadProfile.
func TestReadProfileFormats(t *testing.T) {
	prof, cprof := chunkedDemo(t, []int64{50}, ChunkedOptions{ChunkSize: 64, Workers: 2})
	encode := func(w io.WriterTo, version uint8) []byte {
		t.Helper()
		var v1 bytes.Buffer
		if _, err := w.WriteTo(&v1); err != nil {
			t.Fatal(err)
		}
		a, err := iwpp.Decode(v1.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		iwpp.SetVersion(a, version)
		var out bytes.Buffer
		if _, err := a.Encode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	for _, version := range []uint8{iwpp.FormatV1, iwpp.FormatV2} {
		mono, chunked := encode(prof, version), encode(cprof, version)
		back, err := ReadProfile(bytes.NewReader(mono))
		if err != nil {
			t.Fatalf("ReadProfile %s: %v", mono[:4], err)
		}
		if !back.Equal(prof) {
			t.Fatalf("ReadProfile %s: profile differs", mono[:4])
		}
		cback, err := ReadProfile(bytes.NewReader(chunked))
		if err != nil {
			t.Fatalf("ReadProfile %s: %v", chunked[:4], err)
		}
		if cback.Events() != cprof.Events() || cback.Instructions() != cprof.Instructions() {
			t.Fatalf("ReadProfile %s: header fields differ", chunked[:4])
		}
		if !cback.Equal(prof) {
			t.Fatalf("ReadProfile %s: trace differs from the monolithic profile's", chunked[:4])
		}
	}
}

// TestContainersAgreeOnWorkloads holds a chunked profile (chunk 64, two
// workers) to the monolithic profile of the same run, on every bundled
// workload at small scale: positional queries, hot subpaths, path
// frequencies, and a Diff of -1 against each other.
func TestContainersAgreeOnWorkloads(t *testing.T) {
	for _, w := range workloads.All {
		t.Run(w.Name, func(t *testing.T) {
			p, err := Compile(w.Source)
			if err != nil {
				t.Fatal(err)
			}
			args := []int64{w.Small}
			mono, err := p.Profile(args)
			if err != nil {
				t.Fatal(err)
			}
			chunked, err := p.ProfileChunked(args, ChunkedOptions{ChunkSize: 64, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			n := mono.Events()
			if chunked.Events() != n || chunked.Size().Chunks < 2 {
				t.Fatalf("events %d vs %d, %d chunks", chunked.Events(), n, chunked.Size().Chunks)
			}
			for _, i := range []uint64{0, n / 2, n - 1} {
				fm, im, errm := mono.EventAt(i)
				fc, ic, errc := chunked.EventAt(i)
				if errm != nil || errc != nil || fm != fc || im != ic {
					t.Fatalf("EventAt(%d): %s:%d %v vs %s:%d %v", i, fm, im, errm, fc, ic, errc)
				}
			}
			sm, errm := mono.Slice(n/3, n/3)
			sc, errc := chunked.Slice(n/3, n/3)
			if errm != nil || errc != nil || !reflect.DeepEqual(sm, sc) {
				t.Fatalf("Slice differs: %v %v", errm, errc)
			}
			hopts := HotOptions{MinLen: 2, MaxLen: 8, Threshold: 0.01}
			hm, errm := mono.HotSubpaths(hopts)
			hc, errc := chunked.HotSubpaths(hopts)
			if errm != nil || errc != nil || !reflect.DeepEqual(hm, hc) {
				t.Fatalf("HotSubpaths differ: %v %v", errm, errc)
			}
			if !reflect.DeepEqual(mono.PathFrequencies(), chunked.PathFrequencies()) {
				t.Fatal("PathFrequencies differ")
			}
			for _, pair := range [][2]*Profile{{mono, chunked}, {chunked, mono}} {
				if i, ea, eb := pair[0].Diff(pair[1]); i != -1 {
					t.Fatalf("Diff = %d (%s vs %s), want -1", i, ea, eb)
				}
			}
		})
	}
}
