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
	sym := uint32(k)
	for i := uint32(trieHash(parent, uint64(sym))) & t.mask; t.slots[i].id != 0; i = (i + 1) & t.mask {
		if s := t.slots[i]; s.parent == parent && s.sym == sym {
			return s.id
		}
	}
	return 0
}

// TestShardsPartitionWindowCount checks, on every bundled workload's
// grammar and for 1..5 shards, that the prefix shards partition the
// window count: their tries' counts together are CountWindowRange's, no
// counted window is in two shards (nor in a shard its prefix does not
// route to), and every shard trie numbers parents below their children.
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
				for shards := 1; shards <= 5; shards++ {
					label := fmt.Sprintf("min=%d shards=%d", minLen, shards)
					owner := make([]int, full.Len()) // 1 + the shard counting each full-trie node
					var got int
					for s := 0; s < shards; s++ {
						tr := a.CountWindowShard(minLen, maxLen, s, shards)
						if err := tr.Err(); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						// remap[n] is shard node n's node in the full trie;
						// route[n] the shard its length-minLen prefix routes to.
						remap := make([]uint32, tr.Len())
						route := make([]int, tr.Len())
						for n := 1; n < tr.Len(); n++ {
							p := tr.Parent[n]
							if p >= uint32(n) {
								t.Fatalf("%s shard %d: node %d has parent %d", label, s, n, p)
							}
							if remap[n] = full.lookup(remap[p], tr.Dict[tr.Sym[n]]); remap[n] == 0 {
								t.Fatalf("%s shard %d: window %v is not in the full count", label, s, tr.Window(uint32(n), nil))
							}
							switch d := int(tr.Depth[n]); {
							case d == minLen:
								route[n] = ShardOf(tr.Window(uint32(n), nil), shards)
							case d > minLen:
								route[n] = route[p]
							}
							if int(tr.Depth[n]) < minLen || tr.Count[n] == 0 {
								continue
							}
							id := remap[n]
							switch {
							case owner[id] != 0:
								t.Fatalf("%s: window %v counted in shards %d and %d", label, tr.Window(uint32(n), nil), owner[id]-1, s)
							case route[n] != s:
								t.Fatalf("%s: window %v counted in shard %d, routes to %d", label, tr.Window(uint32(n), nil), s, route[n])
							case tr.Count[n] != full.Count[id]:
								t.Fatalf("%s: window %v counted %d times, CountWindowRange %d", label, tr.Window(uint32(n), nil), tr.Count[n], full.Count[id])
							}
							owner[id] = s + 1
							got++
						}
					}
					if got != want {
						t.Fatalf("%s: shards count %d distinct windows, CountWindowRange %d", label, got, want)
					}
				}
			}
		})
	}
}
