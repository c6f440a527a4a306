package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/hotpath"
	"repro/internal/interp"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// P1Row reports parallel chunked pipeline scaling for one workload:
// chunk compression and per-chunk hot-subpath analysis at 1 worker vs N
// workers over the identical event stream.
type P1Row struct {
	Name    string
	Events  uint64
	Chunks  int
	Build1  time.Duration // parallel builder, Workers=1
	BuildN  time.Duration // parallel builder, Workers=N
	Speedup float64       // Build1 / BuildN
	Find1   time.Duration // FindChunked, 1 worker
	FindN   time.Duration // FindChunked, N workers
}

// P1 measures the chunked build on a worker pool: same stream, same chunk
// size, 1 worker vs `workers` workers, for both construction and the
// hot-subpath analysis. The outputs are verified identical before any
// timing is reported, so the table can only ever show the cost of
// parallelism, never a different answer.
func P1(scale Scale, names []string, chunkSize uint64, workers, reps int) ([]P1Row, *Table, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var rows []P1Row
	tbl := &Table{
		ID:     "P1",
		Title:  fmt.Sprintf("parallel chunked pipeline scaling (chunk=%d, N=%d, GOMAXPROCS=%d)", chunkSize, workers, runtime.GOMAXPROCS(0)),
		Header: []string{"workload", "events", "chunks", "build w=1", fmt.Sprintf("build w=%d", workers), "speedup", "find w=1", fmt.Sprintf("find w=%d", workers)},
		Notes: []string{
			"build: wpp.New chunked build wall time over a pre-captured stream, Add to Finish; find: FindChunked (min 2, max 8, 0.5%)",
			"wall-clock speedup requires free cores; outputs are byte-identical at every worker count",
		},
	}
	hotOpts := hotpath.Options{MinLen: 2, MaxLen: 8, Threshold: 0.005}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		_, t, err := capture(w, scale, interp.PathTrace)
		if err != nil {
			return nil, nil, err
		}

		build := func(nw int) *iwpp.ChunkedWPP {
			b := iwpp.New(nil, nil, iwpp.BuildOptions{ChunkSize: chunkSize, Workers: nw})
			for _, e := range t.Events {
				b.Add(e)
			}
			return b.Finish(uint64(len(t.Events))).(*iwpp.ChunkedWPP)
		}
		c1 := build(1)
		cN := build(workers)
		if err := sameChunks(c1, cN); err != nil {
			return nil, nil, fmt.Errorf("p1 %s: %w", name, err)
		}
		subs1, err := hotpath.FindChunked(c1, hotOpts, 1)
		if err != nil {
			return nil, nil, err
		}
		subsN, err := hotpath.FindChunked(cN, hotOpts, workers)
		if err != nil {
			return nil, nil, err
		}
		if len(subs1) != len(subsN) {
			return nil, nil, fmt.Errorf("p1 %s: find results diverge (%d vs %d subpaths)", name, len(subs1), len(subsN))
		}

		best, err := bestOf(reps,
			func() error { build(1); return nil },
			func() error { build(workers); return nil },
			func() error { _, err := hotpath.FindChunked(c1, hotOpts, 1); return err },
			func() error { _, err := hotpath.FindChunked(cN, hotOpts, workers); return err })
		if err != nil {
			return nil, nil, err
		}
		r := P1Row{
			Name: name, Events: uint64(len(t.Events)), Chunks: len(c1.Chunks),
			Build1: best[0], BuildN: best[1], Speedup: dratio(best[0], best[1]),
			Find1: best[2], FindN: best[3],
		}
		rows = append(rows, r)
		tbl.Rows = append(tbl.Rows, []string{
			r.Name, fmt.Sprint(r.Events), fmt.Sprint(r.Chunks),
			r.Build1.String(), r.BuildN.String(), fmt.Sprintf("%.2f", r.Speedup),
			r.Find1.String(), r.FindN.String(),
		})
	}
	return rows, tbl, nil
}

// sameChunks asserts two chunked artifacts are structurally identical
// (the pipeline's determinism contract).
func sameChunks(a, b *iwpp.ChunkedWPP) error {
	if len(a.Chunks) != len(b.Chunks) || a.Events != b.Events {
		return fmt.Errorf("chunk structure diverges: %d/%d chunks, %d/%d events", len(a.Chunks), len(b.Chunks), a.Events, b.Events)
	}
	for i := range a.Chunks {
		ra, rb := a.Chunks[i].Rules, b.Chunks[i].Rules
		if len(ra) != len(rb) {
			return fmt.Errorf("chunk %d diverges: %d vs %d rules", i, len(ra), len(rb))
		}
		for j := range ra {
			if len(ra[j]) != len(rb[j]) {
				return fmt.Errorf("chunk %d rule %d diverges", i, j)
			}
			for k := range ra[j] {
				if ra[j][k] != rb[j][k] {
					return fmt.Errorf("chunk %d rule %d sym %d diverges", i, j, k)
				}
			}
		}
	}
	return nil
}
