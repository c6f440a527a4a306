package hotpath

import (
	"testing"

	"repro/internal/trace"
)

// spectraOf is CompareSpectra on eager artifacts, which cannot fail.
func spectraOf(t testing.TB, a, b Source) *SpectrumDiff {
	t.Helper()
	d, err := CompareSpectra(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCompareSpectraIdentical(t *testing.T) {
	ids := []uint64{1, 2, 3, 1, 2, 1}
	a := syntheticWPP(ids)
	b := syntheticWPP(ids)
	d := spectraOf(t, a, b)
	if !d.Identical() {
		t.Fatalf("identical traces diff: %+v", d.Entries)
	}
	if d.SharedPaths != 3 || d.TotalPaths != 3 {
		t.Fatalf("shared/total = %d/%d", d.SharedPaths, d.TotalPaths)
	}
}

func TestCompareSpectraFrequencyShift(t *testing.T) {
	a := syntheticWPP([]uint64{1, 1, 1, 2})
	b := syntheticWPP([]uint64{1, 2, 2, 2})
	d := spectraOf(t, a, b)
	if d.Identical() {
		t.Fatal("differing spectra reported identical")
	}
	if len(d.Entries) != 2 {
		t.Fatalf("%d entries, want 2", len(d.Entries))
	}
	for _, e := range d.Entries {
		if e.OnlyA || e.OnlyB {
			t.Fatalf("shared path flagged as exclusive: %+v", e)
		}
		if absDiff(e.CountA, e.CountB) != 2 {
			t.Fatalf("unexpected delta: %+v", e)
		}
	}
	if d.SharedPaths != 2 || d.TotalPaths != 2 {
		t.Fatalf("shared/total = %d/%d", d.SharedPaths, d.TotalPaths)
	}
}

func TestCompareSpectraExclusivePaths(t *testing.T) {
	a := syntheticWPP([]uint64{1, 1, 2})
	b := syntheticWPP([]uint64{1, 1, 3, 3, 3, 3, 3})
	d := spectraOf(t, a, b)
	if len(d.Entries) != 2 {
		t.Fatalf("%d entries, want 2 (path 2 only in A, path 3 only in B)", len(d.Entries))
	}
	// Path 3 has the larger delta (5), so it sorts first.
	first, second := d.Entries[0], d.Entries[1]
	if !first.OnlyB || first.Event != trace.MakeEvent(0, 3) || first.CountB != 5 {
		t.Fatalf("first entry %+v", first)
	}
	if !second.OnlyA || second.Event != trace.MakeEvent(0, 2) {
		t.Fatalf("second entry %+v", second)
	}
	if d.SharedPaths != 1 || d.TotalPaths != 3 {
		t.Fatalf("shared/total = %d/%d", d.SharedPaths, d.TotalPaths)
	}
}

func TestCompareSpectraOnRealProgram(t *testing.T) {
	// The same program on different inputs: the spectra localize the
	// behavioral difference to the branch the input change flips.
	src := `
func classify(x) {
    if x >= 100 { return 2; }
    if x >= 10 { return 1; }
    return 0;
}
func main(n) {
    var s = 0;
    var i = 0;
    while i < n { s = s + classify(i); i = i + 1; }
    return s;
}`
	small := programWPP(t, src, 9)   // never reaches the >=10 branches
	large := programWPP(t, src, 150) // reaches all branches
	same1 := programWPP(t, src, 9)

	if d := spectraOf(t, small, same1); !d.Identical() {
		t.Fatalf("identical runs diff: %+v", d.Entries)
	}
	d := spectraOf(t, small, large)
	if d.Identical() {
		t.Fatal("different inputs produced identical spectra")
	}
	// Some classify paths must be exclusive to the large run.
	foundExclusive := false
	for _, e := range d.Entries {
		if e.OnlyB {
			foundExclusive = true
		}
		if e.OnlyA && e.OnlyB {
			t.Fatalf("entry exclusive to both: %+v", e)
		}
	}
	if !foundExclusive {
		t.Fatal("no paths exclusive to the large run")
	}
}
