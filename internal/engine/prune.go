package engine

import (
	"math"
	"math/bits"
)

// Pruning restricts a window count to the windows that can be minimal
// hot windows, the second of a two-pass hot-subpath search. Pass 1
// counts every window of length MinLen in the trace (its base trie);
// pass 2 counts the longer windows, and a window's cost is its count
// times its unit cost, the sum of its events' costs. A window is hot
// when its cost is at least the floor or does not fit in 64 bits, and a
// minimal hot window contains no shorter hot window of length MinLen or
// more. Pass 2 walks each start's windows, longest last, and stops
// before the first length at which one of these holds:
//
//   - H, A: a MinLen window inside it is hot (the start's own, or a
//     later one). Every window from the start at least this long
//     contains it, so none of them is minimal.
//   - D: a MinLen window inside it is rare: its count, times its unit
//     cost plus MaxLen-MinLen times the largest event cost, is below
//     the floor. No window of at most MaxLen events that contains it is
//     hot.
//   - B: the least pass-1 count among the MinLen windows inside it,
//     times the unit cost of the start's longest walked window, is below
//     the floor. A window occurs no more often than any of its
//     subwindows, and its unit cost only grows with its length, so no
//     window from the start at least this long is hot. A product that
//     does not fit in 64 bits never cuts.
//
// No occurrence of a minimal hot window is cut, so every minimal hot
// window keeps its exact count. A window that loses occurrences either
// was not hot or contains a hot MinLen window; an undercount never makes
// a window hot. So the minimal hot windows read off the two passes, with
// their counts, are exactly those of the unpruned count. When every
// MinLen window is hot or rare, pass 2 has nothing to count (Live).
//
// A Pruning only reads its base trie, so counts may share it
// concurrently.
type Pruning struct {
	base   *WindowTrie
	minLen int
	cost   func(v uint64) uint64
	floor  uint64
	ranks  map[uint64]uint32 // base.Dict inverted
	// vals[n] is base node n's pass-1 value: 0 if its window is a hot or
	// rare MinLen window, its count if it is another MinLen window, and
	// MaxUint64, which never cuts, for every other node.
	vals []uint64
	// link[n] is base node n's suffix link: the node of window n without
	// its first event, or noLink if base has no such node. The root, whose
	// window is empty, links nowhere.
	link []uint32
	live bool // some MinLen window is neither hot nor rare
}

// NewPruning prepares pass 2, which counts windows of at most maxLen
// events, from base, pass 1's count of every window of length minLen in
// the trace. cost returns the unit cost of an event and must be safe for
// concurrent calls; floor is the least hot cost.
func NewPruning(base *WindowTrie, minLen, maxLen int, cost func(v uint64) uint64, floor uint64) *Pruning {
	p := &Pruning{base: base, minLen: minLen, cost: cost, floor: floor,
		ranks: make(map[uint64]uint32, len(base.Dict)), vals: make([]uint64, base.Len()), link: make([]uint32, base.Len())}
	costs := make([]uint64, len(base.Dict))
	var most uint64
	for k, v := range base.Dict {
		p.ranks[v], costs[k] = uint32(k), cost(v)
		most = max(most, costs[k])
	}
	// rest bounds the cost of the events a window of at most maxLen adds
	// to a MinLen window inside it.
	hi, rest := bits.Mul64(uint64(maxLen-minLen), most)
	if hi != 0 {
		rest = math.MaxUint64
	}
	units := make([]uint64, base.Len())
	p.vals[0], p.link[0] = math.MaxUint64, noLink
	for n := 1; n < base.Len(); n++ {
		// A window's suffix is its prefix's suffix extended by its last
		// event, which only an exact find can name: the links of
		// Aho–Corasick's automaton, built here in node order, which
		// visits each parent before its children.
		switch pl := p.link[base.Parent[n]]; {
		case base.Depth[n] == 1:
			p.link[n] = 0
		case pl == noLink:
			p.link[n] = noLink
		default:
			if p.link[n] = base.find(pl, base.Sym[n]); p.link[n] == 0 {
				p.link[n] = noLink
			}
		}
		units[n] = addSat(units[base.Parent[n]], costs[base.Sym[n]])
		switch c := base.Count[n]; {
		case int(base.Depth[n]) != minLen || c == 0:
			p.vals[n] = math.MaxUint64
		case !p.cold(c, units[n]) || p.cold(c, addSat(units[n], rest)):
			p.vals[n] = 0
		default:
			p.vals[n] = c
			p.live = true
		}
	}
	return p
}

// Live reports whether some MinLen window is neither hot nor rare, the
// only kind a window pass 2 counts may be made of. Without one, pass 2
// would count nothing and can be skipped.
func (p *Pruning) Live() bool { return p.live }

// cold reports whether count occurrences of unit cost at most unit cost
// less than the floor. A saturated unit or product is never cold.
func (p *Pruning) cold(count, unit uint64) bool {
	hi, lo := bits.Mul64(count, unit)
	return hi == 0 && lo < p.floor
}

// cut returns the longest prefix of a start's window that pass 2 still
// counts, given vals[i], the pass-1 value of the MinLen window at each of
// its positions i, and an upper bound on its unit cost.
func (p *Pruning) cut(vals []uint64, unit uint64) int {
	least := uint64(math.MaxUint64)
	for i, c := range vals {
		if c == 0 || c < least && p.cold(c, unit) {
			return i + p.minLen - 1
		}
		least = min(least, c)
	}
	return len(vals) + p.minLen - 1
}

// Cut returns the length of the longest prefix of window, a sequence of
// events, that pass 2 counts: all of it for a nil p or a window shorter
// than MinLen. It prunes the windows crossing chunk seams
// (CrossingWindows) as the grammar walk prunes the windows inside one.
func (p *Pruning) Cut(window []uint64) int {
	if p == nil || len(window) < p.minLen {
		return len(window)
	}
	var buf [MaxWindowLen]uint64
	vals := buf[:len(window)-p.minLen+1]
	for i := range vals {
		vals[i] = p.value(window[i : i+p.minLen])
	}
	var unit uint64
	for _, v := range window {
		unit = addSat(unit, p.cost(v))
	}
	return p.cut(vals, unit)
}

// value is the pass-1 value of the window of events win.
func (p *Pruning) value(win []uint64) uint64 {
	var n uint32
	for _, v := range win {
		k, ok := p.ranks[v]
		if !ok {
			return math.MaxUint64
		}
		if n = p.base.find(n, k); n == 0 {
			return math.MaxUint64
		}
	}
	return p.vals[n]
}

// noLink marks a base node without a suffix link.
const noLink = math.MaxUint32

// addSat returns a+b, or MaxUint64 if the sum does not fit.
func addSat(a, b uint64) uint64 {
	s, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		return math.MaxUint64
	}
	return s
}
