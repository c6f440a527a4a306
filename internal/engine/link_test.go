package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/workloads"
)

// linkStats counts what walkLinked checked: pass-1 values, values whose
// window follows one whose node has no suffix link, and whether a value
// of the trace's last MinLen window was among them.
type linkStats struct {
	checked, unlinked int
	sawEnd            bool
}

// walkLinked drives a walker pruned by p over every start position that
// part part of parts of a count of windows of p.minLen+1..maxLen walks,
// in countPart's order, and after each call to starts checks every
// pass-1 value the walker holds against p.value, which descends p's base
// trie from the root by events.
func walkLinked(t *testing.T, label string, a *Analysis, p *Pruning, maxLen, part, parts int) linkStats {
	t.Helper()
	a.rankTerminals()
	L, m := uint64(maxLen), p.minLen
	w := &walker{t: NewWindowTrie(), a: a, ends: a.rankEnds(maxLen - 1), maxLen: L, minLen: m + 1}
	w.prune(p)
	var st linkStats
	var events []uint64
	check := func() {
		for i, got := range w.vals {
			events = events[:0]
			for _, k := range w.terms[i : i+m] {
				events = append(events, a.dict[k])
			}
			if want := p.value(events); got != want {
				t.Fatalf("%s: rule %d position %d: linked pass-1 value %d, root descent %d", label, w.r, w.runLo+uint64(i), got, want)
			}
			if i > 0 {
				if prev := w.descend(w.terms[i-1 : i-1+m]); prev != 0 && p.link[prev] == noLink {
					st.unlinked++
				}
			}
			st.sawEnd = st.sawEnd || w.r == 0 && w.runLo+uint64(i+m) == w.total
		}
		st.checked += len(w.vals)
	}
	size := 0
	for _, rhs := range a.ranked {
		size += len(rhs)
	}
	lo, hi := size*part/parts, size*(part+1)/parts
	off := 0
	for r, rhs := range a.ranked {
		jLo, jHi := max(lo-off, 0), min(hi-off, len(rhs))
		off += len(rhs)
		cum := a.CumLens[r]
		total := cum[len(rhs)]
		if jLo >= jHi || a.Uses[r] == 0 || total < uint64(m+1) {
			continue
		}
		w.rule(int32(r), total, a.Uses[r], jLo)
		for j := jLo; j < jHi; j++ {
			if !rhs[j].IsRule() {
				k := j + 1
				for k < jHi && !rhs[k].IsRule() {
					k++
				}
				w.starts(cum[j], cum[k], 0)
				check()
				j = k - 1
				continue
			}
			end := cum[j+1]
			w.starts(max(cum[j], end+1-min(end+1, L)), end, end)
			check()
		}
	}
	return st
}

// checkLinks holds every suffix link of p's base trie to a root descent:
// a node's link is the node of its window without the first event, the
// root for a one-event window, and noLink when the trie has no such
// node.
func checkLinks(t *testing.T, label string, p *Pruning) {
	t.Helper()
	base := p.base
	var win []uint64
	for n := 1; n < base.Len(); n++ {
		win = base.Window(uint32(n), win[:0])
		want := uint32(0)
		for _, v := range win[1:] {
			if want = base.lookup(want, v); want == 0 {
				want = noLink
				break
			}
		}
		if p.link[n] != want {
			t.Fatalf("%s: node %d (window %v) links to %d, want %d", label, n, win, p.link[n], want)
		}
	}
}

// TestSuffixLinksExact checks the pruned walker's pass-1 values, each one
// find from the previous window's suffix link, against root descents:
// on every bundled workload's grammar with its own pass 1, and on
// hand-built grammars whose runs start, grow and drop (walkGrammars)
// under their own pass 1 and under a base trie counted from part of the
// trace without one event, so that the walk meets absent links, windows
// without a node and ranks without a base rank (noRank).
func TestSuffixLinksExact(t *testing.T) {
	cost := func(v uint64) uint64 { return v%13 + 1 }
	own := func(a *Analysis, minLen int) *Pruning {
		base := a.CountWindowPart(minLen, minLen, nil, 0, 1)
		var total uint64
		a.Terminals(func(v, uses uint64) { total += cost(v) * uses })
		return NewPruning(base, minLen, 16, cost, total/200)
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			a := workloadAnalysis(t, name)
			p := own(a, 4)
			checkLinks(t, name, p)
			for _, parts := range []int{1, 2} {
				st := walkLinked(t, name, a, p, 16, 0, parts)
				if st.checked == 0 {
					t.Fatalf("%s: no pass-1 value checked", name)
				}
			}
		})
	}

	unlinked := 0 // values after an absent link, over the partial bases
	for name, sn := range walkGrammars() {
		a := NewAnalysis(sn)
		var trace []uint64
		sn.Expand(0, func(v uint64) bool { trace = append(trace, v); return true })
		for _, minLen := range []int{2, 4} {
			// A base from every second window of the trace's first two
			// thirds, skipping windows that hold the trace's largest
			// event.
			rng := rand.New(rand.NewSource(int64(minLen)))
			part := NewWindowTrie()
			top := trace[0]
			for _, v := range trace {
				top = max(top, v)
			}
		window:
			for i := 0; i+minLen <= 2*len(trace)/3; i++ {
				if rng.Intn(2) == 0 {
					continue
				}
				for _, v := range trace[i : i+minLen] {
					if v == top {
						continue window
					}
				}
				part.Add(trace[i:i+minLen], minLen, uint64(1+rng.Intn(50)))
			}
			var total uint64
			for _, v := range trace {
				total += cost(v)
			}
			bases := map[string]*Pruning{
				"own pass 1": own(a, minLen),
				"partial":    NewPruning(part, minLen, 16, cost, total/200),
			}
			for kind, p := range bases {
				label := fmt.Sprintf("%s, MinLen %d, %s", name, minLen, kind)
				checkLinks(t, label, p)
				for _, parts := range []int{1, 3} {
					var st linkStats
					for s := 0; s < parts; s++ {
						got := walkLinked(t, label, a, p, 16, s, parts)
						st.checked += got.checked
						st.unlinked += got.unlinked
						st.sawEnd = st.sawEnd || got.sawEnd
					}
					if !st.sawEnd {
						t.Errorf("%s, %d part(s): the trace's last MinLen window was not checked", label, parts)
					}
					if kind == "partial" {
						unlinked += st.unlinked
					}
				}
				if kind == "partial" {
					missing := 0
					w := &walker{a: a}
					a.rankTerminals()
					w.prune(p)
					for _, b := range w.toBase {
						if b == noRank {
							missing++
						}
					}
					if missing == 0 {
						t.Errorf("%s: every rank has a base rank: the noRank check is vacuous", label)
					}
				}
			}
		}
	}
	if unlinked == 0 {
		t.Error("no value followed an absent link: the absent-link check is vacuous")
	}
}
