package sequitur_test

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
)

// BenchmarkSequiturCollectMix appends perfbench collect's eight
// programs' path traces to a fresh grammar each, in 4096-event batches
// (the builder's batch size). The traces are captured once through
// interp before the timer starts, on the bundled input as
// BenchmarkInterpCollectMix runs them, so this is the builder half of a
// collect op and that benchmark the interpreter half.
func BenchmarkSequiturCollectMix(b *testing.B) {
	mix := []struct {
		name string
		arg  int64
	}{
		{"matrix", 40}, {"sim", 120000}, {"hash", 12500}, {"hash", 12500},
		{"compress", 1250}, {"compress", 1250}, {"lexer", 15000}, {"lexer", 15000},
	}
	traces := make([][]trace.Event, len(mix))
	for i, p := range mix {
		w, err := workloads.ByName(p.name)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := wlc.Compile(w.Source)
		if err != nil {
			b.Fatal(err)
		}
		var buf trace.Buffer
		m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: &buf})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run("main", p.arg); err != nil {
			b.Fatal(err)
		}
		traces[i] = buf.Events
	}
	const batch = 4096
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, es := range traces {
			g := sequitur.New()
			for len(es) > 0 {
				n := min(len(es), batch)
				sequitur.AppendBatchOf(g, es[:n])
				es = es[n:]
			}
			events += g.Len()
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mev/s")
}
