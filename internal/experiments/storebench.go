package experiments

// StoreBench is the content-addressed-store trajectory: for every
// workload at each requested scale it measures the cold Resolve (a cache
// miss that runs the workload, builds the artifact, and stores it), the
// warm Resolve (a pure store read reassembling the artifact from its
// chunk objects), and the dedup the store achieves when an identical run
// is stored again — the repeated-nightly-run scenario the store exists
// for. Every number comes from the store's own obsv counters, so the
// trajectory also pins the contract that a warm Resolve performs no
// build. cmd/wppbench serializes the result to BENCH_store.json and
// renders an old/new comparison when a previous trajectory exists.

import (
	"fmt"
	"os"
	"strings"

	"repro/internal/obsv"
	"repro/internal/store"
	iwpp "repro/internal/wpp"
)

// StoreBenchRow is one workload-at-scale measurement.
type StoreBenchRow struct {
	Name  string `json:"name"`
	Scale string `json:"scale"`
	// ArtifactBytes is the encoded artifact size; Parts is how many CAS
	// objects it spans (header + one per chunk grammar).
	ArtifactBytes int64 `json:"artifact_bytes"`
	Parts         int   `json:"parts"`
	// ColdResolveMS is the cache-miss Resolve: interpreter run, build,
	// encode, and store write. WarmResolveMS is the best-of-reps
	// cache-hit Resolve: manifest load plus per-object reassembly and
	// hash verification. Speedup is cold/warm.
	ColdResolveMS float64 `json:"cold_resolve_ms"`
	WarmResolveMS float64 `json:"warm_resolve_ms"`
	Speedup       float64 `json:"speedup"`
	// RepeatNewObjects counts objects a second identical run's store
	// write created (0 = perfect dedup); RepeatDedupedBytes counts the
	// bytes that second write shared with the first.
	RepeatNewObjects   uint64 `json:"repeat_new_objects"`
	RepeatDedupedBytes uint64 `json:"repeat_deduped_bytes"`
}

// StoreLayout is table C1 and the BENCH_store.json trajectory. Its
// totals are the store-wide accounting over the whole run: every byte
// handed to PutObject either landed as a new object (bytes_written) or
// deduped against one already present (bytes_deduped); dedup_ratio is
// deduped / (written + deduped).
var StoreLayout = Layout[StoreBenchRow]{
	Schema: "wpp/storebench/v2",
	ID:     "C1",
	Title: func(t *Trajectory[StoreBenchRow]) string {
		c := t.Config
		return fmt.Sprintf("content-addressed store: resolve latency and repeat-run dedup (chunk=%s, workers=%s, %s, best of %s)", c["chunk"], c["workers"], c["format"], c["reps"])
	},
	Notes: func(t *Trajectory[StoreBenchRow]) []string {
		return []string{
			"cold = cache-miss Resolve (interpreter run + build + store write); warm = cache-hit Resolve (reassemble + verify from CAS objects)",
			"repeat columns store an independent rebuild of the same tuple: 0 new objects means every chunk grammar deduped",
			fmt.Sprintf("store-wide: %.0f bytes written, %.0f deduped (ratio %.3f)", t.Totals["bytes_written"], t.Totals["bytes_deduped"], t.Totals["dedup_ratio"]),
		}
	},
	Columns: []Column[StoreBenchRow]{
		text("workload", func(r StoreBenchRow) string { return r.Name }),
		text("scale", func(r StoreBenchRow) string { return r.Scale }),
		num("bytes", "%.0f", func(r StoreBenchRow) float64 { return float64(r.ArtifactBytes) }),
		num("parts", "%.0f", func(r StoreBenchRow) float64 { return float64(r.Parts) }),
		num("cold ms", "%.2f", func(r StoreBenchRow) float64 { return r.ColdResolveMS }),
		tracked("warm ms", "%.3f", func(r StoreBenchRow) float64 { return r.WarmResolveMS }),
		num("speedup", "%.0fx", func(r StoreBenchRow) float64 { return r.Speedup }),
		num("repeat new objs", "%.0f", func(r StoreBenchRow) float64 { return float64(r.RepeatNewObjects) }),
		tracked("repeat dedup", "%.0fB", func(r StoreBenchRow) float64 { return float64(r.RepeatDedupedBytes) }),
	},
	Key: func(r StoreBenchRow) string { return r.Name + "@" + r.Scale },
}

// StoreBench measures the store on the named workloads across the given
// scales, using a throwaway store directory. chunk and workers shape the
// build; reps is best-of for the warm read.
func StoreBench(scales []Scale, names []string, chunk uint64, workers, reps int) (*Trajectory[StoreBenchRow], error) {
	reps = max(reps, 1)
	dir, err := os.MkdirTemp("", "wpp-storebench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	met := store.NewMetrics(obsv.NewRegistry())
	st, err := store.Open(dir, met)
	if err != nil {
		return nil, err
	}

	var scaleNames []string
	for _, s := range scales {
		scaleNames = append(scaleNames, s.String())
	}
	res := StoreLayout.Start(map[string]string{
		"scale": strings.Join(scaleNames, ","), "chunk": fmt.Sprint(chunk), "workers": fmt.Sprint(workers), "format": "wpp2", "reps": fmt.Sprint(reps),
	})
	for _, s := range scales {
		for _, name := range names {
			row, err := storeBenchRow(st, met, name, s, chunk, workers, reps)
			if err != nil {
				return nil, fmt.Errorf("storebench %s@%s: %w", name, s, err)
			}
			res.Rows = append(res.Rows, row)
		}
	}
	written, deduped := float64(met.BytesWritten.Value()), float64(met.BytesDeduped.Value())
	res.Totals = map[string]float64{"bytes_written": written, "bytes_deduped": deduped, "dedup_ratio": 0}
	if written+deduped > 0 {
		res.Totals["dedup_ratio"] = deduped / (written + deduped)
	}
	return res, nil
}

func storeBenchRow(st *store.Store, met *store.Metrics, name string, s Scale, chunk uint64, workers, reps int) (StoreBenchRow, error) {
	row := StoreBenchRow{Name: name, Scale: s.String()}
	key := store.BuildKey{Workload: name, Scale: s.String(), Chunk: chunk, Workers: workers, Format: "wpp2"}

	buildsBefore := met.ResolveBuilds.Value()
	var cold store.ResolveResult
	dCold, err := bestOf(1, func() (err error) {
		cold, err = st.Resolve(key, store.DefaultBuild(key))
		return err
	})
	if err != nil {
		return row, err
	}
	if cold.Hit {
		return row, fmt.Errorf("first resolve hit a cache that should be cold")
	}
	row.ArtifactBytes = int64(len(cold.Bytes))
	row.ColdResolveMS = 1e3 * dCold[0].Seconds()
	m, err := st.Manifest(cold.Hash)
	if err != nil {
		return row, err
	}
	row.Parts = len(m.Parts)

	warm, err := bestOf(reps, func() error {
		r, err := st.Resolve(key, store.DefaultBuild(key))
		if err == nil && !r.Hit {
			err = fmt.Errorf("repeat resolve missed a warm cache")
		}
		return err
	})
	if err != nil {
		return row, err
	}
	// The contract the trajectory pins: warm resolves never build.
	if got := met.ResolveBuilds.Value(); got != buildsBefore+1 {
		return row, fmt.Errorf("resolve built %d times, want exactly 1", got-buildsBefore)
	}
	row.WarmResolveMS = 1e3 * warm[0].Seconds()
	if warm[0] > 0 {
		row.Speedup = dCold[0].Seconds() / warm[0].Seconds()
	}

	// The repeated-run scenario: an independent build of the same tuple
	// produces byte-identical chunk grammars, so storing it again writes
	// nothing new. The rebuild is stamped to the key's format exactly as
	// Resolve stamps its own builds.
	a, err := store.DefaultBuild(key)()
	if err != nil {
		return row, err
	}
	iwpp.SetVersion(a, iwpp.FormatV2)
	wrote, deduped := met.ObjectsWritten.Value(), met.BytesDeduped.Value()
	if _, _, err := st.PutArtifact(a); err != nil {
		return row, err
	}
	row.RepeatNewObjects = met.ObjectsWritten.Value() - wrote
	row.RepeatDedupedBytes = met.BytesDeduped.Value() - deduped
	return row, nil
}
