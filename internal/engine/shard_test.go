package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/interp"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
)

// workloadAnalysis compresses a bundled workload's Small-scale path trace
// into one grammar.
func workloadAnalysis(t *testing.T, name string) *Analysis {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := wlc.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	g := sequitur.New()
	m, err := interp.New(p, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) { g.Append(uint64(e)) })})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("main", w.Small); err != nil {
		t.Fatal(err)
	}
	return NewAnalysis(g.Snapshot())
}

// lookup returns the node of window parent·v, for v an event, or 0 if t
// has none. It ranks v in t's own dictionary, so it looks up a node of
// another trie whatever that trie's ranks.
func (t *WindowTrie) lookup(parent uint32, v uint64) uint32 {
	k := slices.Index(t.Dict, v)
	if k < 0 {
		return 0
	}
	return t.find(parent, uint32(k))
}

// TestShardsPartitionWindowCount checks, on every bundled workload's
// grammar and for 1..5 parts, that the parts partition the window
// count: the counts of their tries sum to CountWindowRange's, window by
// window, and every part's trie numbers parents below their children.
func TestShardsPartitionWindowCount(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a := workloadAnalysis(t, name)
			for _, minLen := range []int{1, 4} {
				const maxLen = 16
				full := a.CountWindowRange(minLen, maxLen)
				var want int
				for n := 1; n < full.Len(); n++ {
					if int(full.Depth[n]) >= minLen && full.Count[n] != 0 {
						want++
					}
				}
				if want == 0 {
					t.Fatalf("min=%d: no windows counted", minLen)
				}
				for parts := 1; parts <= 5; parts++ {
					label := fmt.Sprintf("min=%d parts=%d", minLen, parts)
					sum := make([]uint64, full.Len()) // the parts' counts, by full-trie node
					for s := 0; s < parts; s++ {
						tr := a.CountWindowPart(minLen, maxLen, nil, s, parts)
						if err := tr.Err(); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						// remap[n] is part node n's node in the full trie.
						remap := make([]uint32, tr.Len())
						for n := 1; n < tr.Len(); n++ {
							p := tr.Parent[n]
							if p >= uint32(n) {
								t.Fatalf("%s part %d: node %d has parent %d", label, s, n, p)
							}
							if remap[n] = full.lookup(remap[p], tr.Dict[tr.Sym[n]]); remap[n] == 0 {
								t.Fatalf("%s part %d: window %v is not in the full count", label, s, tr.Window(uint32(n), nil))
							}
							sum[remap[n]] += tr.Count[n]
						}
					}
					for n := 1; n < full.Len(); n++ {
						if sum[n] != full.Count[n] {
							t.Fatalf("%s: window %v counted %d times by the parts, %d by CountWindowRange", label, full.Window(uint32(n), nil), sum[n], full.Count[n])
						}
					}
				}
			}
		})
	}
}
