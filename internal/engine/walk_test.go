package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sequitur"
)

func term(v uint64) sequitur.Sym { return sequitur.Sym{Rule: -1, Value: v} }
func ref(r int32) sequitur.Sym   { return sequitur.Sym{Rule: r} }

// stretch returns n terminals over the events 1..5, with the window
// 6 7 8 9 10 11 12 13 at every 50th position, so that some windows
// longer than MinLen are hot while their MinLen windows are not.
func stretch(rng *rand.Rand, n int) []sequitur.Sym {
	out := make([]sequitur.Sym, 0, n)
	for len(out) < n {
		if len(out)%50 == 0 {
			for v := uint64(6); v <= 13 && len(out) < n; v++ {
				out = append(out, term(v))
			}
			continue
		}
		out = append(out, term(uint64(1+rng.Intn(5))))
	}
	return out
}

// walkGrammars are hand-built grammars whose start rules put the walker
// at its run boundaries: a stretch of 5000 terminals, whose starts are
// walked as one run; 5000 references to a two-symbol rule, each starting
// windows that overlap the next ones; and both, on each side of a rule
// that expands to more than 16 events.
func walkGrammars() map[string]*sequitur.Snapshot {
	rng := rand.New(rand.NewSource(31))
	pair := []sequitur.Sym{term(1), term(2)}
	long := []sequitur.Sym{term(3), ref(1), term(4), term(5), ref(1), term(6), term(7), term(8),
		ref(1), term(3), term(4), term(5), term(6), ref(1), term(9), term(10)}
	refs := func(n int) []sequitur.Sym {
		out := make([]sequitur.Sym, n)
		for i := range out {
			out[i] = ref(1)
		}
		return out
	}
	cat := func(parts ...[]sequitur.Sym) []sequitur.Sym {
		var out []sequitur.Sym
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	return map[string]*sequitur.Snapshot{
		"stretch": {Rules: [][]sequitur.Sym{stretch(rng, 5000)}},
		"refs":    {Rules: [][]sequitur.Sym{cat([]sequitur.Sym{term(9)}, refs(5000), []sequitur.Sym{term(9)}), pair}},
		"both": {Rules: [][]sequitur.Sym{
			cat(stretch(rng, 4500), []sequitur.Sym{ref(2)}, refs(4200), []sequitur.Sym{ref(2)}, stretch(rng, 4500)),
			pair, long}},
	}
}

// unitCost is the cost of one occurrence of the window of CountWindows
// key key, each of whose events, all below 256, costs its value.
func unitCost(key string) uint64 {
	var unit uint64
	for i := 0; i < len(key); i += 8 {
		unit += uint64(key[i+7])
	}
	return unit
}

// countParts merges the counts of parts parts of a's windows.
func countParts(a *Analysis, minLen, maxLen int, p *Pruning, parts int) *WindowTrie {
	t := NewWindowTrie()
	for s := 0; s < parts; s++ {
		part := a.CountWindowPart(minLen, maxLen, p, s, parts)
		t.Merge(part)
		part.Release()
	}
	return t
}

// TestWalkRunBoundaries checks the walker where its runs start, grow and
// drop, on walkGrammars: at 1 and 3 parts, the unpruned count of every
// window length equals a brute-force count over the expanded trace, and
// a pruned count built from the grammar's own pass 1, at a low floor and
// at one above every MinLen window's cost, gives every hot window it
// counts, and every hot window without a hot MinLen window inside, its
// exact count.
func TestWalkRunBoundaries(t *testing.T) {
	for name, sn := range walkGrammars() {
		if err := sn.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var trace []uint64
		var total uint64 // every event's cost is its value
		sn.Expand(0, func(v uint64) bool { trace, total = append(trace, v), total+v; return true })
		a := NewAnalysis(sn)
		for _, r := range [][2]int{{1, 1}, {2, 5}, {4, 16}} {
			minLen, maxLen := r[0], r[1]
			scan := make([]map[string]uint64, maxLen+1)
			for l := minLen; l <= maxLen; l++ {
				scan[l] = scanWindows(trace, l)
			}
			for _, parts := range []int{1, 3} {
				label := fmt.Sprintf("%s len %d..%d, %d part(s)", name, minLen, maxLen, parts)
				full := countParts(a, minLen, maxLen, nil, parts)
				for l := 1; l <= maxLen; l++ {
					want := map[string]uint64{}
					if l >= minLen {
						want = scan[l]
					}
					if got := trieCounts(full, l); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %d windows of length %d counted, brute force %d", label, len(got), l, len(want))
					}
				}
				if maxLen == minLen {
					continue
				}
				// A low floor, at which the MinLen windows' hotness cuts most
				// walks, and one just above the costliest MinLen window, at
				// which only the cost bounds cut.
				cost := func(v uint64) uint64 { return v }
				var costliest uint64
				for key, c := range scan[minLen] {
					costliest = max(costliest, c*unitCost(key))
				}
				for _, floor := range []uint64{total / 200, costliest + 1} {
					hot := func(count uint64, key string) bool { return count*unitCost(key) >= floor }
					p := NewPruning(countParts(a, minLen, minLen, nil, parts), minLen, maxLen, cost, floor)
					pruned := countParts(a, minLen+1, maxLen, p, parts)
					exact := 0
					for l := minLen + 1; l <= maxLen; l++ {
						got := trieCounts(pruned, l)
						for key, c := range got {
							if hot(c, key) && c != scan[l][key] {
								t.Fatalf("%s, floor %d: hot window %x counted %d times, brute force %d", label, floor, key, c, scan[l][key])
							}
						}
					next:
						for key, c := range scan[l] {
							if !hot(c, key) {
								continue
							}
							for i := 0; i+8*minLen <= len(key); i += 8 {
								if sub := key[i : i+8*minLen]; hot(scan[minLen][sub], sub) {
									continue next
								}
							}
							if got[key] != c {
								t.Fatalf("%s, floor %d: hot window %x with no hot MinLen window counted %d times, brute force %d", label, floor, key, got[key], c)
							}
							exact++
						}
					}
					if exact == 0 && floor > costliest {
						t.Errorf("%s, floor %d: no window is hot: the pruned check is vacuous", label, floor)
					}
				}
			}
		}
	}
}
