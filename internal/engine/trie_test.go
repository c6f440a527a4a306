package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// CountWindowRange returns a trie counting every window of length
// minLen..maxLen in the grammar's expansion, in one walk per start
// position; windows shorter than minLen have count 0. It is the
// unpruned, one-part case of CountWindowPart, the oracle the window-count
// tests compare the parts and the pruned counts against.
func (a *Analysis) CountWindowRange(minLen, maxLen int) *WindowTrie {
	return a.CountWindowPart(minLen, maxLen, nil, 0, 1)
}

// trieCounts lists the trie's nonzero counts of length-l windows in
// CountWindows' key form.
func trieCounts(t *WindowTrie, l int) map[string]uint64 {
	out := map[string]uint64{}
	for n := 1; n < t.Len(); n++ {
		if int(t.Depth[n]) == l && t.Count[n] != 0 {
			out[windowKey(t.Window(uint32(n), nil))] += t.Count[n]
		}
	}
	return out
}

func TestCountWindowRangeMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ranges := [][2]int{{1, 1}, {1, 6}, {3, 3}, {2, 9}, {4, 16}, {7, 40}}
	for _, n := range []int{1, 2, 5, 31, 400} {
		for _, alphabet := range []int{2, 5} {
			syms := randSyms(rng, n, alphabet)
			a := NewAnalysis(buildSnap(t, syms))
			for _, r := range ranges {
				tr := a.CountWindowRange(r[0], r[1])
				if err := tr.Err(); err != nil {
					t.Fatal(err)
				}
				for l := r[0]; l <= r[1]; l++ {
					got, want := trieCounts(tr, l), scanWindows(syms, l)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("n=%d alphabet=%d range=%v l=%d: trie counts %v, scan %v", n, alphabet, r, l, got, want)
					}
				}
			}
		}
	}
}

func TestWindowTrieWindowAndParentOrder(t *testing.T) {
	tr := NewWindowTrie()
	windows := [][]uint64{{3, 1, 4, 1, 5}, {3, 1, 2}, {9}, {1 << 61, 0, 7}}
	for _, w := range windows {
		tr.Add(w, 1, 1)
	}
	for n := 1; n < tr.Len(); n++ {
		if tr.Parent[n] >= uint32(n) {
			t.Fatalf("node %d has parent %d: parents must precede children", n, tr.Parent[n])
		}
		if got := tr.Depth[n]; got != tr.Depth[tr.Parent[n]]+1 {
			t.Fatalf("node %d depth %d, parent depth %d", n, got, tr.Depth[tr.Parent[n]])
		}
	}
	// Every prefix of every added window is a node counted once.
	want := map[string]uint64{}
	for _, w := range windows {
		for l := 1; l <= len(w); l++ {
			want[windowKey(w[:l])]++
		}
	}
	got := map[string]uint64{}
	for n := 1; n < tr.Len(); n++ {
		got[windowKey(tr.Window(uint32(n), nil))] = tr.Count[n]
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("trie windows %v, want %v", got, want)
	}
}

// TestWindowTrieMergeSumsCounts merges two tries whose dictionaries
// overlap but rank their events differently.
func TestWindowTrieMergeSumsCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a, b := randSyms(rng, 120, 3), randSyms(rng, 90, 4)
	for i := range b {
		b[i] += 2
	}
	ta := NewAnalysis(buildSnap(t, a)).CountWindowRange(2, 7)
	tb := NewAnalysis(buildSnap(t, b)).CountWindowRange(2, 7)
	ta.Merge(tb)
	for l := 2; l <= 7; l++ {
		want := scanWindows(a, l)
		for k, v := range scanWindows(b, l) {
			want[k] += v
		}
		if got := trieCounts(ta, l); !reflect.DeepEqual(got, want) {
			t.Fatalf("l=%d: merged counts disagree with the summed scans", l)
		}
	}
}

// TestWindowTrieLimits checks that every way of exceeding the trie's
// representable range reports a *LimitError instead of truncating a
// depth or wrapping a node ID or a symbol rank.
func TestWindowTrieLimits(t *testing.T) {
	a := NewAnalysis(buildSnap(t, randSyms(rand.New(rand.NewSource(29)), 300, 3)))
	long := make([]uint64, MaxWindowLen+1)
	cases := []struct {
		name string
		run  func() *WindowTrie
	}{
		{"range beyond MaxWindowLen", func() *WindowTrie {
			return a.CountWindowRange(1, MaxWindowLen+1)
		}},
		{"window beyond MaxWindowLen", func() *WindowTrie {
			tr := NewWindowTrie()
			tr.Add(long, 1, 1)
			return tr
		}},
		{"node IDs exhausted by Add", func() *WindowTrie {
			tr := NewWindowTrie()
			tr.maxNodes = 8
			for v := uint64(0); v < 20; v++ {
				tr.Add([]uint64{v, v + 1}, 1, 1)
			}
			return tr
		}},
		{"node IDs exhausted by Merge", func() *WindowTrie {
			tr := NewWindowTrie()
			tr.maxNodes = 8
			tr.Merge(a.CountWindowRange(1, 6))
			return tr
		}},
		{"symbols exhausted by a count", func() *WindowTrie {
			tr := NewWindowTrie()
			tr.maxSyms = 2
			a.countPart(tr, 1, 6, nil, 0, 1)
			return tr
		}},
		{"symbols exhausted by Add", func() *WindowTrie {
			tr := NewWindowTrie()
			tr.maxSyms = 2
			tr.Add([]uint64{5, 6, 5, 7, 6}, 1, 1)
			return tr
		}},
		{"symbols exhausted by Merge", func() *WindowTrie {
			tr := NewWindowTrie()
			tr.maxSyms = 2
			tr.Add([]uint64{7, 8}, 1, 1)
			tr.Merge(a.CountWindowRange(1, 6))
			return tr
		}},
		{"exhaustion carried over by Merge", func() *WindowTrie {
			full := NewWindowTrie()
			full.maxNodes = 2
			full.Add([]uint64{1, 2, 3}, 1, 1)
			tr := NewWindowTrie()
			tr.Merge(full)
			return tr
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := c.run()
			var le *LimitError
			if !errors.As(tr.Err(), &le) {
				t.Fatalf("Err() = %v, want a *LimitError", tr.Err())
			}
			if le.Value <= le.Limit {
				t.Fatalf("LimitError value %d within its limit %d", le.Value, le.Limit)
			}
			if tr.maxNodes > 0 && tr.Len() > tr.maxNodes {
				t.Fatalf("trie grew to %d nodes past its limit %d", tr.Len(), tr.maxNodes)
			}
			if len(tr.Dict) > tr.maxSyms {
				t.Fatalf("dictionary grew to %d symbols past its limit %d", len(tr.Dict), tr.maxSyms)
			}
			checkRanks(t, tr)
			for n := 1; n < tr.Len(); n++ {
				if int(tr.Depth[n]) > MaxWindowLen || tr.Parent[n] >= uint32(n) {
					t.Fatalf("node %d: depth %d parent %d", n, tr.Depth[n], tr.Parent[n])
				}
			}
		})
	}
}

func TestCountWindowsRejectsOutOfRangeLength(t *testing.T) {
	a := NewAnalysis(buildSnap(t, []uint64{1, 2, 3}))
	for _, l := range []int{0, MaxWindowLen + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("CountWindows(%d) did not panic", l)
				}
			}()
			a.CountWindows(l, map[string]uint64{})
		}()
	}
}

// windowCounts maps the window of every node of t, by content, to its
// count.
func windowCounts(t *WindowTrie) map[string]uint64 {
	out := make(map[string]uint64, t.Len())
	for n := 1; n < t.Len(); n++ {
		out[windowKey(t.Window(uint32(n), nil))] = t.Count[n]
	}
	return out
}

// checkRanks fails unless every node's symbol ranks an entry of Dict.
func checkRanks(t *testing.T, tr *WindowTrie) {
	t.Helper()
	for n := 1; n < tr.Len(); n++ {
		if int(tr.Sym[n]) >= len(tr.Dict) {
			t.Fatalf("node %d has rank %d, dictionary size %d", n, tr.Sym[n], len(tr.Dict))
		}
	}
}

// TestTrieReuseIsolation checks that a reset trie keeps nothing of its
// earlier counts: a query of grammar A run on a trie that already counted
// A and then B — whose events A lacks — numbers the same windows with the
// same counts as on a fresh trie. The query also merges another chunk's
// trie and adds a seam window, each with events missing from A's
// dictionary, so both paths that extend a dictionary run on the reused
// trie. A trie whose slot table grew past maxKeptSlots keeps that many
// slots on reset, and counts the same.
func TestTrieReuseIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	symsB := randSyms(rng, 300, 6)
	for i := range symsB {
		symsB[i] += 100
	}
	a := NewAnalysis(buildSnap(t, randSyms(rng, 400, 4)))
	b := NewAnalysis(buildSnap(t, symsB))
	other := NewAnalysis(buildSnap(t, append(randSyms(rng, 200, 3), 9, 9, 7, 1)))
	seam := []uint64{3, 8, 0, 1, 5}
	query := func(tr *WindowTrie) map[string]uint64 {
		t.Helper()
		a.countPart(tr, 2, 7, nil, 0, 1)
		o := other.CountWindowRange(2, 7)
		tr.Merge(o)
		o.Release()
		tr.Add(seam, 2, 1)
		if err := tr.Err(); err != nil {
			t.Fatal(err)
		}
		checkRanks(t, tr)
		return windowCounts(tr)
	}
	fresh := NewWindowTrie()
	want := query(fresh)
	for _, v := range []uint64{9, 7, 8, 5} {
		if !slices.Contains(fresh.Dict, v) {
			t.Fatalf("event %d missing from the merged dictionary %v", v, fresh.Dict)
		}
	}

	tr := NewWindowTrie()
	query(tr)
	tr.Reset()
	b.countPart(tr, 1, 9, nil, 0, 1)
	tr.Add([]uint64{100, 101, 999}, 1, 3)
	tr.Reset()
	if got := query(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("reused trie counts %d windows, fresh trie %d, or their counts differ", len(got), len(want))
	}
	if tr.Len() != fresh.Len() {
		t.Fatalf("reused trie has %d nodes, fresh trie %d", tr.Len(), fresh.Len())
	}

	// A slot table grown past maxKeptSlots is cut back to it.
	tr.rehash(4 * maxKeptSlots)
	tr.Reset()
	if len(tr.slots) != maxKeptSlots {
		t.Fatalf("reset kept %d slots, want %d", len(tr.slots), maxKeptSlots)
	}
	if got := query(tr); !reflect.DeepEqual(got, want) {
		t.Fatalf("trie reset from %d slots counts %d windows, fresh trie %d, or their counts differ", 4*maxKeptSlots, len(got), len(want))
	}

	// The same through the pool: every count of A, whatever trie it
	// draws, matches a fresh one.
	for i := 0; i < 4; i++ {
		tb := b.CountWindowRange(1, 9)
		tb.Release()
		ta := a.CountWindowRange(2, 7)
		ref := NewWindowTrie()
		a.countPart(ref, 2, 7, nil, 0, 1)
		if got, want := windowCounts(ta), windowCounts(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: pooled trie counts differ from a fresh trie's", i)
		}
		ta.Release()
	}
}

// TestTrieSlotSize pins the interning-table slot at three uint32s.
func TestTrieSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(trieSlot{}); got != 12 {
		t.Fatalf("trieSlot is %d bytes, want 12", got)
	}
}
