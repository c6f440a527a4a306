package experiments

import (
	"fmt"

	"repro/internal/collect"
	"repro/internal/interp"
	"repro/internal/wlc"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// verifyChunkSize is the chunk geometry the verification pre-pass uses
// for the chunked build of each workload.
const verifyChunkSize = 4096

// VerifyAll builds each named workload at the given scale through the
// unified builder — once monolithic, once chunked — deep-verifies both
// artifacts (SEQUITUR invariants, chunk geometry, path-ID bounds), and
// reports the verification summaries. It backs wppbench -verify:
// experiment numbers are only worth reporting when the artifacts they
// measure hold their invariants.
func VerifyAll(scale Scale, names []string) (*Table, error) {
	tbl := &Table{
		ID:     "verify",
		Title:  "artifact deep verification",
		Header: []string{"workload", "kind", "events", "chunks", "rules", "digram dups/bound", "status"},
		Notes:  []string{fmt.Sprintf("chunked builds use chunk size %d", verifyChunkSize)},
	}
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		prog, err := wlc.Compile(w.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		for _, opts := range []iwpp.BuildOptions{{}, {ChunkSize: verifyChunkSize}} {
			t, err := collect.Run(prog, []int64{scale.Arg(w)}, interp.Config{}, collect.Build(opts))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
			rep, err := t.Artifact.VerifyArtifact(0)
			if err != nil {
				return nil, fmt.Errorf("%s (%s): %w", name, rep.Kind, err)
			}
			tbl.Rows = append(tbl.Rows, []string{
				name, rep.Kind,
				fmt.Sprint(rep.Events), fmt.Sprint(rep.Chunks), fmt.Sprint(rep.Rules),
				fmt.Sprintf("%d/%d", rep.DupDigrams, rep.DupDigramBound),
				"ok",
			})
		}
	}
	return tbl, nil
}
