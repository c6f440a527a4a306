package experiments

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// A3Row reports the memory/size tradeoff of chunked WPP construction for
// one (workload, chunkSize) cell.
type A3Row struct {
	Name        string
	ChunkSize   uint64 // 0 means monolithic (no chunking)
	Chunks      int
	PeakLiveRHS int
	Bytes       int64
	// Penalty is Bytes over the monolithic grammar bytes.
	Penalty float64
}

// A3 quantifies the paper's memory discussion: bounding SEQUITUR's live
// memory by chunking the stream, against the compression lost at chunk
// boundaries.
func A3(scale Scale, names []string, chunkSizes []uint64) ([]A3Row, *Table, error) {
	var rows []A3Row
	tbl := &Table{
		ID:     "A3",
		Title:  "ablation: bounded-memory chunked WPP construction",
		Header: []string{"workload", "chunk", "chunks", "peak live syms", "grammar B", "vs monolithic"},
		Notes:  []string{"chunk=0 is the monolithic grammar; peak live syms is the working-set bound"},
	}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		prog, err := wlc.Compile(w.Source)
		if err != nil {
			return nil, nil, err
		}
		// Capture the event stream once.
		var events []trace.Event
		m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) {
			events = append(events, e)
		})})
		if err != nil {
			return nil, nil, err
		}
		if _, err := m.Run("main", scale.Arg(w)); err != nil {
			return nil, nil, err
		}

		build := func(chunk uint64) *iwpp.ChunkedWPP {
			size := chunk
			if size == 0 {
				size = uint64(len(events)) + 1
			}
			b := iwpp.New(nil, nil, iwpp.BuildOptions{ChunkSize: size, Workers: 1})
			for _, e := range events {
				b.Add(e)
			}
			return b.Finish(0).(*iwpp.ChunkedWPP)
		}

		mono := build(0)
		monoBytes := mono.Stats().GrammarBytes
		emit := func(chunk uint64, c *iwpp.ChunkedWPP) {
			st := c.Stats()
			r := A3Row{
				Name: w.Name, ChunkSize: chunk, Chunks: st.Chunks,
				PeakLiveRHS: st.PeakLiveRHS, Bytes: st.GrammarBytes,
				Penalty: ratio(st.GrammarBytes, monoBytes),
			}
			rows = append(rows, r)
			tbl.Rows = append(tbl.Rows, []string{
				r.Name, fmt.Sprint(r.ChunkSize), fmt.Sprint(r.Chunks),
				fmt.Sprint(r.PeakLiveRHS), fmt.Sprint(r.Bytes), fmt.Sprintf("%.2f", r.Penalty),
			})
		}
		emit(0, mono)
		for _, chunk := range chunkSizes {
			emit(chunk, build(chunk))
		}
	}
	return rows, tbl, nil
}
