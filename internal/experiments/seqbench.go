package experiments

// SeqBench is the compressor's performance trajectory: a machine-readable
// measurement of raw SEQUITUR Append throughput and allocation rate on
// the bundled workloads' real event streams, in both construction
// regimes (one monolithic grammar; pooled per-chunk grammars reset
// between chunks). cmd/wppbench serializes the result to
// BENCH_sequitur.json so successive PRs can diff compressor performance
// instead of re-deriving it from prose, and renders a benchstat-style
// old/new comparison when a previous trajectory file exists.

import (
	"fmt"

	"repro/internal/sequitur"
	"repro/internal/workloads"
)

// SeqBenchMeasure is one regime's measurement on one workload.
type SeqBenchMeasure struct {
	// EventsPerSec is the best-of-reps Append throughput. For the
	// chunked regime the timed loop includes the per-chunk Reset and
	// Snapshot, the real per-chunk pipeline cost.
	EventsPerSec float64 `json:"events_per_sec"`
	// AllocBytesPerEvent is heap bytes allocated per appended event,
	// measured on a steady-state run (for the chunked regime the pooled
	// grammar is already warm, so this is dominated by snapshots).
	AllocBytesPerEvent float64 `json:"alloc_bytes_per_event"`
	// Rules and RHSSymbols are the grammar size the regime produced
	// (summed over chunk grammars for the chunked regime).
	Rules      int `json:"rules"`
	RHSSymbols int `json:"rhs_symbols"`
	// Chunks is the number of chunk grammars (1 for monolithic).
	Chunks int `json:"chunks"`
}

// SeqBenchRow is one workload's measurements.
type SeqBenchRow struct {
	Name    string          `json:"name"`
	Events  uint64          `json:"events"`
	Mono    SeqBenchMeasure `json:"mono"`
	Chunked SeqBenchMeasure `json:"chunked"`
}

// SeqLayout is table S1 and the BENCH_sequitur.json trajectory.
var SeqLayout = Layout[SeqBenchRow]{
	Schema: "wpp/seqbench/v2",
	ID:     "S1",
	Title: func(t *Trajectory[SeqBenchRow]) string {
		c := t.Config
		return fmt.Sprintf("SEQUITUR compressor throughput (scale=%s, chunk=%s, best of %s)", c["scale"], c["chunk"], c["reps"])
	},
	Notes: func(*Trajectory[SeqBenchRow]) []string {
		return []string{
			"chunked regime times Reset+Append+Snapshot per chunk on one pooled grammar (warm arena)",
			"B/ev is heap bytes allocated per event; mono includes first-touch arena growth",
		}
	},
	Columns: []Column[SeqBenchRow]{
		text("workload", func(r SeqBenchRow) string { return r.Name }),
		num("events", "%.0f", func(r SeqBenchRow) float64 { return float64(r.Events) }),
		tracked("mono Mev/s", "%.2f", func(r SeqBenchRow) float64 { return r.Mono.EventsPerSec / 1e6 }),
		tracked("mono B/ev", "%.1f", func(r SeqBenchRow) float64 { return r.Mono.AllocBytesPerEvent }),
		tracked("chunk Mev/s", "%.2f", func(r SeqBenchRow) float64 { return r.Chunked.EventsPerSec / 1e6 }),
		tracked("chunk B/ev", "%.1f", func(r SeqBenchRow) float64 { return r.Chunked.AllocBytesPerEvent }),
		num("mono rules", "%.0f", func(r SeqBenchRow) float64 { return float64(r.Mono.Rules) }),
		num("chunk rules", "%.0f", func(r SeqBenchRow) float64 { return float64(r.Chunked.Rules) }),
	},
	Key: func(r SeqBenchRow) string { return r.Name },
}

// SeqBench measures compressor throughput on the named workloads at the
// given scale. chunkSize shapes the pooled regime; reps is best-of.
func SeqBench(scale Scale, names []string, chunkSize uint64, reps int) (*Trajectory[SeqBenchRow], error) {
	reps = max(reps, 1)
	res := SeqLayout.Start(map[string]string{"scale": scale.String(), "chunk": fmt.Sprint(chunkSize), "reps": fmt.Sprint(reps)})
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		art, err := collectWorkload(w, scale)
		if err != nil {
			return nil, err
		}
		stream := make([]uint64, len(art.Events))
		for i, e := range art.Events {
			stream[i] = uint64(e)
		}
		row := SeqBenchRow{Name: name, Events: uint64(len(stream))}
		if len(stream) == 0 {
			res.Rows = append(res.Rows, row)
			continue
		}

		// Monolithic: one fresh grammar consumes the whole stream. The
		// alloc measurement uses its own run so symbol-slice/table growth is
		// charged honestly to the regime that pays it.
		var g *sequitur.Grammar
		build := func() error {
			g = sequitur.New()
			for _, v := range stream {
				g.Append(v)
			}
			return nil
		}
		// build and pass below never return an error.
		mono, _ := bestOf(reps, build)
		monoAlloc, _ := allocBytes(build)
		st := g.Stats()
		row.Mono = SeqBenchMeasure{
			EventsPerSec:       float64(len(stream)) / mono[0].Seconds(),
			AllocBytesPerEvent: float64(monoAlloc) / float64(len(stream)),
			Rules:              st.Rules,
			RHSSymbols:         st.RHSSymbols,
			Chunks:             1,
		}

		// Chunked: one pooled grammar, Reset per chunk, Snapshot per
		// chunk — the parallel builder's per-worker steady state. The
		// first full pass warms the arena; timing and allocation are
		// then measured warm.
		pooled := sequitur.New()
		var snaps []*sequitur.Snapshot
		pass := func() error {
			snaps = snaps[:0]
			for lo := 0; lo < len(stream); lo += int(chunkSize) {
				hi := min(lo+int(chunkSize), len(stream))
				pooled.Reset()
				for _, v := range stream[lo:hi] {
					pooled.Append(v)
				}
				snaps = append(snaps, pooled.Snapshot())
			}
			return nil
		}
		_ = pass() // warm the symbol slice and table to the largest chunk's working set
		chunked, _ := bestOf(reps, pass)
		chunkedAlloc, _ := allocBytes(pass)
		cm := SeqBenchMeasure{
			EventsPerSec:       float64(len(stream)) / chunked[0].Seconds(),
			AllocBytesPerEvent: float64(chunkedAlloc) / float64(len(stream)),
			Chunks:             len(snaps),
		}
		for _, sn := range snaps {
			cm.Rules += len(sn.Rules)
			for _, rhs := range sn.Rules {
				cm.RHSSymbols += len(rhs)
			}
		}
		row.Chunked = cm
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
