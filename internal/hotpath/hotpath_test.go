package hotpath

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/wpp"
)

// syntheticWPP builds a WPP over function 0 from a bare event-ID stream,
// with every path costing 1 instruction.
func syntheticWPP(ids []uint64) *wpp.WPP {
	b := wpp.NewMonoBuilder([]string{"f"}, nil)
	for _, id := range ids {
		b.Add(trace.MakeEvent(0, id))
	}
	return b.Finish(uint64(len(ids)))
}

func programWPP(t *testing.T, src string, args ...int64) *wpp.WPP {
	t.Helper()
	p, err := wlc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	var b *wpp.MonoBuilder
	m, err := interp.New(p, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) { b.Add(e) })})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(p.Funcs))
	for i, f := range p.Funcs {
		names[i] = f.Name
	}
	b = wpp.NewMonoBuilder(names, m.Numberings())
	if _, err := m.Run("main", args...); err != nil {
		t.Fatal(err)
	}
	return b.Finish(m.Stats().Instructions)
}

func TestOptionsValidation(t *testing.T) {
	w := syntheticWPP([]uint64{1, 2, 3})
	bad := []Options{
		{MinLen: 0, MaxLen: 2, Threshold: 0.1},
		{MinLen: 3, MaxLen: 2, Threshold: 0.1},
		{MinLen: 1, MaxLen: 2, Threshold: 0},
		{MinLen: 1, MaxLen: 2, Threshold: 1.5},
		{MinLen: 1, MaxLen: 2, Threshold: math.NaN()},
		{MinLen: 1, MaxLen: engine.MaxWindowLen + 1, Threshold: 0.1},
	}
	for _, o := range bad {
		if _, err := Find(w, o, 1); err == nil {
			t.Errorf("options %+v accepted", o)
		}
		if _, err := FindByScan(w, o); err == nil {
			t.Errorf("scan: options %+v accepted", o)
		}
	}
	// A MaxLen the window trie cannot hold is a typed limit error; the
	// longest one it can hold is accepted.
	var le *engine.LimitError
	if _, err := Find(w, bad[len(bad)-1], 1); !errors.As(err, &le) {
		t.Errorf("MaxLen beyond engine.MaxWindowLen: error %v, want an *engine.LimitError", err)
	}
	if _, err := Find(w, Options{MinLen: 1, MaxLen: engine.MaxWindowLen, Threshold: 0.1}, 1); err != nil {
		t.Errorf("MaxLen engine.MaxWindowLen rejected: %v", err)
	}
}

func TestUniformRepetition(t *testing.T) {
	// 100 identical events: the 2-window occurs 99 times and covers
	// ~198% (overlapping); it is the only minimal hot subpath at
	// MinLen 2.
	ids := make([]uint64, 100)
	w := syntheticWPP(ids)
	got, err := Find(w, Options{MinLen: 2, MaxLen: 6, Threshold: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("got %d subpaths, want 1: %+v", len(got), got)
	}
	sp := got[0]
	if len(sp.Events) != 2 || sp.Count != 99 || sp.Cost != 198 {
		t.Fatalf("unexpected subpath %+v", sp)
	}
}

func TestAlternation(t *testing.T) {
	// ABABAB...: at length 2 both AB (50x... ) and BA are hot; length-3
	// windows all contain one of them.
	ids := make([]uint64, 100)
	for i := range ids {
		ids[i] = uint64(i % 2)
	}
	w := syntheticWPP(ids)
	got, err := Find(w, Options{MinLen: 2, MaxLen: 5, Threshold: 0.3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d subpaths, want 2 (AB and BA): %+v", len(got), got)
	}
	for _, sp := range got {
		if len(sp.Events) != 2 {
			t.Fatalf("non-minimal subpath reported: %+v", sp)
		}
	}
}

func TestMinimalityAcrossLengths(t *testing.T) {
	// A trace where a 3-window is hot but no 2-window reaches the
	// threshold: pattern XYZ repeated, separated by unique noise, with
	// the threshold tuned between a 2-window's and a 3-window's cost.
	var ids []uint64
	next := uint64(100)
	for i := 0; i < 30; i++ {
		ids = append(ids, 1, 2, 3)
		ids = append(ids, next) // unique separator
		next++
	}
	w := syntheticWPP(ids)
	total := float64(len(ids))
	// 2-windows (1,2) and (2,3) occur 30 times: cost 60. 3-window
	// (1,2,3) occurs 30 times: cost 90. Pick threshold between.
	th := 75.0 / total
	got, err := Find(w, Options{MinLen: 2, MaxLen: 4, Threshold: th}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Events) != 3 {
		t.Fatalf("want exactly the 3-subpath, got %+v", got)
	}
	if got[0].Count != 30 || got[0].Cost != 90 {
		t.Fatalf("unexpected stats %+v", got[0])
	}
}

func TestSingleEventWindows(t *testing.T) {
	ids := []uint64{5, 5, 5, 7, 5, 5}
	w := syntheticWPP(ids)
	got, err := Find(w, Options{MinLen: 1, MaxLen: 1, Threshold: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Count != 5 || got[0].Events[0].Path() != 5 {
		t.Fatalf("got %+v", got)
	}
}

func TestThresholdBoundary(t *testing.T) {
	// Fraction exactly at the threshold counts as hot.
	ids := []uint64{1, 1, 2, 3} // window (1,1) cost 2 of 4 = 0.5
	w := syntheticWPP(ids)
	got, err := Find(w, Options{MinLen: 2, MaxLen: 2, Threshold: 0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every 2-window of the 4-event trace costs exactly 2/4 = 0.5: all
	// three are hot at the boundary.
	if len(got) != 3 {
		t.Fatalf("boundary fraction not hot: %+v", got)
	}
	for _, sp := range got {
		if sp.Fraction != 0.5 {
			t.Fatalf("fraction %v != 0.5", sp.Fraction)
		}
	}
}

func TestEmptyAndTinyTraces(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3} {
		w := syntheticWPP(make([]uint64, n))
		got, err := Find(w, Options{MinLen: 4, MaxLen: 8, Threshold: 0.1}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n <= 4 && len(got) != 0 {
			t.Fatalf("n=%d: got %+v", n, got)
		}
	}
}

func TestCostsWeighting(t *testing.T) {
	// Two patterns with equal frequency; the one whose paths are more
	// expensive must rank first.
	w := programWPP(t, `
func cheap(x) { return x + 1; }
func pricey(x) {
    var s = 0;
    var i = 0;
    while i < 20 { s = s + i * x; i = i + 1; }
    return s;
}
func main(n) {
    var acc = 0;
    var i = 0;
    while i < n {
        acc = acc + cheap(i) + pricey(i);
        i = i + 1;
    }
    return acc;
}`, 100)
	got, err := Find(w, Options{MinLen: 2, MaxLen: 4, Threshold: 0.05}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no hot subpaths in a hot loop")
	}
	for i := 1; i < len(got); i++ {
		if got[i].Cost > got[i-1].Cost {
			t.Fatal("results not sorted by cost")
		}
	}
}

// TestScanOracle is the package's keystone: the compressed-form analysis
// must agree exactly with decompress-and-scan on every input.
func TestScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		n := 50 + rng.Intn(500)
		alpha := 2 + rng.Intn(6)
		ids := make([]uint64, n)
		for i := range ids {
			if rng.Intn(3) > 0 && i >= 4 {
				// Encourage repetition by copying a recent window.
				ids[i] = ids[i-4]
			} else {
				ids[i] = uint64(rng.Intn(alpha))
			}
		}
		w := syntheticWPP(ids)
		opts := Options{
			MinLen:    1 + rng.Intn(3),
			MaxLen:    3 + rng.Intn(6),
			Threshold: []float64{0.01, 0.05, 0.2}[rng.Intn(3)],
		}
		fast, err := Find(w, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := FindByScan(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("trial %d (n=%d opts=%+v):\n fast=%v\n slow=%v", trial, n, opts, render(fast), render(slow))
		}
	}
}

func TestScanOracleOnRealProgram(t *testing.T) {
	w := programWPP(t, `
func step(x) {
    if x % 2 == 0 { return x / 2; }
    return 3 * x + 1;
}
func main(n) {
    var i = 1;
    var s = 0;
    while i <= n {
        var x = i;
        while x != 1 { x = step(x); s = s + 1; }
        i = i + 1;
    }
    return s;
}`, 60)
	opts := Options{MinLen: 2, MaxLen: 8, Threshold: 0.01}
	fast, err := Find(w, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := FindByScan(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("mismatch on real program:\n fast=%v\n slow=%v", render(fast), render(slow))
	}
	if len(fast) == 0 {
		t.Fatal("collatz driver has no hot subpaths at 1%")
	}
}

func TestCoverage(t *testing.T) {
	s := []Subpath{{Fraction: 0.4}, {Fraction: 0.3}}
	if got := Coverage(s); got < 0.69 || got > 0.71 {
		t.Fatalf("Coverage = %v", got)
	}
	if Coverage(nil) != 0 {
		t.Fatal("empty coverage nonzero")
	}
}

func render(s []Subpath) string {
	out := ""
	for _, sp := range s {
		out += fmt.Sprintf("\n  %v count=%d cost=%d", sp.Events, sp.Count, sp.Cost)
	}
	return out
}
