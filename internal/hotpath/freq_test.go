package hotpath

import (
	"testing"

	"repro/internal/trace"
)

func TestEventFrequenciesMatchWalk(t *testing.T) {
	w := programWPP(t, `
func spin(k) {
    var s = 0;
    var i = 0;
    while i < k { s = s + i; i = i + 1; }
    return s;
}
func main(n) {
    var acc = 0;
    var i = 0;
    while i < n {
        acc = acc + spin(i % 7);
        i = i + 1;
    }
    return acc;
}`, 80)
	freqs := freqsOf(t, w, 1)
	// Oracle: count by walking the expansion.
	direct := map[trace.Event]uint64{}
	var total uint64
	w.Walk(func(e trace.Event) bool {
		direct[e]++
		total++
		return true
	})
	if len(freqs) != len(direct) {
		t.Fatalf("%d distinct events from grammar, %d from walk", len(freqs), len(direct))
	}
	var sum uint64
	for e, n := range direct {
		if freqs[e] != n {
			t.Fatalf("event %v: grammar says %d, walk says %d", e, freqs[e], n)
		}
		sum += freqs[e]
	}
	if sum != total || sum != w.Events {
		t.Fatalf("frequency sum %d != events %d", sum, w.Events)
	}
}

// freqsOf is EventFrequencies on an eager artifact, which cannot fail.
func freqsOf(t testing.TB, src Source, workers int) map[trace.Event]uint64 {
	t.Helper()
	freqs, err := EventFrequencies(src, workers)
	if err != nil {
		t.Fatal(err)
	}
	return freqs
}

func TestPathProfile(t *testing.T) {
	w := programWPP(t, `
func main(n) {
    var s = 0;
    var i = 0;
    while i < n {
        if i % 10 == 0 { s = s + 100; } else { s = s + 1; }
        i = i + 1;
    }
    return s;
}`, 200)
	prof := PathProfile(w)
	if len(prof) == 0 {
		t.Fatal("empty profile")
	}
	var costSum uint64
	for i, e := range prof {
		if i > 0 && e.Cost > prof[i-1].Cost {
			t.Fatal("profile not sorted by cost")
		}
		costSum += e.Cost
	}
	// Every instruction belongs to exactly one path occurrence.
	if costSum != w.Instructions {
		t.Fatalf("profile cost %d != instructions %d", costSum, w.Instructions)
	}
	// The hot loop path must dominate.
	if prof[0].Fraction < 0.3 {
		t.Fatalf("hottest path only %.2f of execution", prof[0].Fraction)
	}
}

func TestFuncProfile(t *testing.T) {
	w := programWPP(t, `
func busy(k) {
    var s = 0;
    var i = 0;
    while i < 50 { s = s + i * k; i = i + 1; }
    return s;
}
func idle(k) { return k; }
func main(n) {
    var acc = 0;
    var i = 0;
    while i < n { acc = acc + busy(i) + idle(i); i = i + 1; }
    return acc;
}`, 50)
	prof, err := FuncProfile(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != 3 {
		t.Fatalf("%d functions in profile, want 3", len(prof))
	}
	var costSum uint64
	var frac float64
	for _, fe := range prof {
		costSum += fe.Cost
		frac += fe.Fraction
	}
	if costSum != w.Instructions {
		t.Fatalf("func profile cost %d != instructions %d", costSum, w.Instructions)
	}
	if frac < 0.999 || frac > 1.001 {
		t.Fatalf("fractions sum to %v", frac)
	}
	// busy (func 0) must rank first.
	if prof[0].Func != 0 {
		t.Fatalf("hottest function is %d, want 0 (busy): %+v", prof[0].Func, prof)
	}
}

func TestEventFrequenciesEmpty(t *testing.T) {
	w := syntheticWPP(nil)
	if n := len(freqsOf(t, w, 1)); n != 0 {
		t.Fatalf("%d frequencies for empty trace", n)
	}
	if p := PathProfile(w); len(p) != 0 {
		t.Fatalf("nonempty profile for empty trace")
	}
}
