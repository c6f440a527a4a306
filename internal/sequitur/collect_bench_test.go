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
		traces[i] = pathTrace(b, p.name, p.arg)
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

// BenchmarkSequiturIngestChunks appends matrix's path trace at arg 24
// (362,377 events) to one pooled grammar in 4096-event chunks, with a
// Reset before and a Snapshot after each chunk: the builder half of a
// perfbench ingest session, where every chunk's grammar is small and
// cache-resident. The trace is captured before the timer starts.
func BenchmarkSequiturIngestChunks(b *testing.B) {
	es := pathTrace(b, "matrix", 24)
	const chunk = 4096
	g := sequitur.New()
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for lo := 0; lo < len(es); lo += chunk {
			g.Reset()
			sequitur.AppendBatchOf(g, es[lo:min(lo+chunk, len(es))])
			g.Snapshot()
			events += g.Len()
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mev/s")
}

// pathTrace runs a bundled workload's main(arg) under path tracing and
// returns its events.
func pathTrace(b *testing.B, name string, arg int64) []trace.Event {
	w, err := workloads.ByName(name)
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
	if _, err := m.Run("main", arg); err != nil {
		b.Fatal(err)
	}
	return buf.Events
}
