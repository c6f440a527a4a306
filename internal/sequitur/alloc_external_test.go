package sequitur_test

import (
	"testing"

	"repro/internal/sequitur"
)

// TestAppendFromAnotherPackageAllocatesNothing is the steady-state alloc
// guard seen from a caller outside the package, where Append is inlined
// and escape analysis no longer sees into the generic engine it calls.
func TestAppendFromAnotherPackageAllocatesNothing(t *testing.T) {
	g := sequitur.New()
	replay := func() {
		g.Reset()
		for i := 0; i < 20000; i++ {
			g.Append(uint64(i % 7))
		}
	}
	replay()
	if allocs := testing.AllocsPerRun(5, replay); allocs != 0 {
		t.Errorf("steady-state Reset+Append from another package allocated %.1f times per replay, want 0", allocs)
	}
}
