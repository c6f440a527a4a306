package engine

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

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

func TestWindowTrieMergeSumsCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a, b := randSyms(rng, 120, 3), randSyms(rng, 90, 4)
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
// depth or wrapping a node ID.
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
