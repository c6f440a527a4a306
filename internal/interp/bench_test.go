package interp

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
)

// BenchmarkInterpCollectMix path-traces perfbench collect's eight
// programs into a trace.Buffer, machine set-up included, as the collect
// op does. The half-size variants that perfbench seeds with their own
// input data run here on the bundled input.
func BenchmarkInterpCollectMix(b *testing.B) {
	mix := []struct {
		name string
		arg  int64
	}{
		{"matrix", 40}, {"sim", 120000}, {"hash", 12500}, {"hash", 12500},
		{"compress", 1250}, {"compress", 1250}, {"lexer", 15000}, {"lexer", 15000},
	}
	progs := make([]*wlc.Program, len(mix))
	for i, p := range mix {
		w, err := workloads.ByName(p.name)
		if err != nil {
			b.Fatal(err)
		}
		if progs[i], err = wlc.Compile(w.Source); err != nil {
			b.Fatal(err)
		}
	}
	var buf trace.Buffer
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range progs {
			buf.Events = buf.Events[:0]
			m, err := New(p, Config{Mode: PathTrace, Sink: &buf})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := m.Run("main", mix[j].arg); err != nil {
				b.Fatal(err)
			}
			events += m.Stats().Events
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mev/s")
}
