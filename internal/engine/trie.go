package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
)

// The window trie hash-conses windows: the window w[0..l) gets one
// integer node ID, defined by id(w[0..l)) = intern(id(w[0..l-1)), w[l-1]),
// with node 0 the empty window. Counting every window length is then one
// walk per start position — each step interns one (parent, symbol) pair
// — instead of one re-hashed byte-string key per window and length. The
// interning index is an open-addressing table in the layout of the
// SEQUITUR digram table: power-of-two capacity, linear probing, keys
// inline in the slot. Nodes are never deleted, so there is no delete
// path and no tombstone.

// MaxWindowLen is the longest window a WindowTrie can hold: node depths
// are stored in a byte.
const MaxWindowLen = math.MaxUint8

// maxTrieNodes is the default node-ID limit: IDs are uint32, with 0
// reserved for the root.
const maxTrieNodes = math.MaxUint32

// LimitError reports a window-counting request beyond what the window
// trie can represent: a window longer than MaxWindowLen, or more
// distinct windows than its node IDs can number.
type LimitError struct {
	// What names the exceeded quantity.
	What string
	// Value is the requested amount, Limit the largest one allowed.
	Value, Limit uint64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("engine: %s %d exceeds the window trie's limit of %d", e.What, e.Value, e.Limit)
}

// trieSlot is one interning-table slot: the (parent, symbol) key inline
// and the node it names; id == 0 marks an empty slot, which is why the
// root's ID is reserved.
type trieSlot struct {
	parent, sym, id uint32
}

// WindowTrie numbers and counts windows. Node n is the window whose last
// symbol is Sym[n] and whose other symbols form window Parent[n]; parents
// always have smaller IDs than their children, so one forward pass over
// the nodes can extend any per-window quantity from its prefix.
//
// Symbols are ranks: symbol k stands for the event Dict[k]. A trie counted
// from a grammar starts from that grammar's dictionary of terminals; Add
// and Merge rank the events they bring that are not in Dict yet, so tries
// with different dictionaries merge exactly.
type WindowTrie struct {
	// Parent[n] is the node of window n without its last symbol.
	Parent []uint32
	// Sym[n] is the rank of the last symbol of window n.
	Sym []uint32
	// Depth[n] is the length of window n.
	Depth []uint8
	// Count[n] is the number of occurrences of window n added so far.
	Count []uint64
	// Dict[k] is the event of rank k.
	Dict []uint64

	slots    []trieSlot
	mask     uint32
	growAt   int
	ranks    map[uint64]uint32 // Dict inverted, built by the first rank call
	maxNodes int
	maxSyms  int
	err      error
}

const minTrieSlots = 64

// maxTrieSyms is the default dictionary-size limit: ranks are uint32.
const maxTrieSyms = 1 << 32

// NewWindowTrie returns a trie holding only the root (the empty window).
func NewWindowTrie() *WindowTrie {
	t := &WindowTrie{
		Parent:   []uint32{0},
		Sym:      []uint32{0},
		Depth:    []uint8{0},
		Count:    []uint64{0},
		maxNodes: maxTrieNodes,
		maxSyms:  maxTrieSyms,
	}
	t.initSlots(minTrieSlots)
	return t
}

// triePool holds released tries, so a count interns into tables already
// grown by an earlier one. A sync.Pool, not a free list: tries it holds
// are freed after two idle GC cycles.
var triePool = sync.Pool{New: func() any { return NewWindowTrie() }}

// maxKeptSlots caps the slot table Reset keeps, at 384 KB. A count walks
// one window at a time and waits out each probe that misses the cache, so
// a small count must not draw a table a large one grew: it would scatter
// its few windows over all of it.
const maxKeptSlots = 1 << 15

// Reset empties t to the root and drops its dictionary and error, keeping
// the capacity of its arrays. The slot table keeps its size up to
// maxKeptSlots, so the next count interns into a table an earlier one has
// already grown.
func (t *WindowTrie) Reset() {
	if len(t.slots) > maxKeptSlots {
		t.initSlots(maxKeptSlots)
	} else {
		clear(t.slots)
	}
	t.Parent, t.Sym, t.Depth, t.Count = t.Parent[:1], t.Sym[:1], t.Depth[:1], t.Count[:1]
	t.Count[0] = 0
	t.Dict, t.ranks, t.err = nil, nil, nil
}

// Release resets t and returns it to the pool CountWindowPart takes its
// tries from. t must not be used after its release.
func (t *WindowTrie) Release() {
	t.Reset()
	triePool.Put(t)
}

// Len reports the number of nodes, root included.
func (t *WindowTrie) Len() int { return len(t.Parent) }

// Err reports the first limit the trie ran into, as a *LimitError; once
// set, the trie stops adding windows and its counts are incomplete.
func (t *WindowTrie) Err() error { return t.err }

// Window appends node n's events, first to last, to dst.
func (t *WindowTrie) Window(n uint32, dst []uint64) []uint64 {
	d := int(t.Depth[n])
	start := len(dst)
	for i := 0; i < d; i++ {
		dst = append(dst, 0)
	}
	for i := start + d - 1; n != 0; i-- {
		dst[i] = t.Dict[t.Sym[n]]
		n = t.Parent[n]
	}
	return dst
}

// fail records the first limit the trie runs into.
func (t *WindowTrie) fail(err error) {
	if t.err == nil {
		t.err = err
	}
}

func trieHash(parent uint32, sym uint64) uint64 {
	h := uint64(parent)*0x9e3779b97f4a7c15 + sym
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

func (t *WindowTrie) initSlots(capacity int) {
	t.slots = make([]trieSlot, capacity)
	t.mask = uint32(capacity - 1)
	t.growAt = capacity - capacity/4
}

// rank returns the rank of event v, adding v to Dict if it has none. It
// reports false once the rank space is exhausted, and records the failure
// in Err.
func (t *WindowTrie) rank(v uint64) (uint32, bool) {
	if t.ranks == nil {
		t.ranks = make(map[uint64]uint32, len(t.Dict))
		for k, e := range t.Dict {
			t.ranks[e] = uint32(k)
		}
	}
	if k, ok := t.ranks[v]; ok {
		return k, true
	}
	n := len(t.Dict)
	if n >= t.maxSyms {
		t.fail(&LimitError{What: "window trie symbol count", Value: uint64(n) + 1, Limit: uint64(t.maxSyms)})
		return 0, false
	}
	t.Dict = append(t.Dict, v)
	t.ranks[v] = uint32(n)
	return uint32(n), true
}

// intern returns the node of window parent·sym, creating it if absent.
// It returns 0 — the root, never a child — once the node-ID space is
// exhausted, and records the failure in Err.
func (t *WindowTrie) intern(parent, sym uint32) uint32 {
	h := uint32(trieHash(parent, uint64(sym)))
	i := h & t.mask
	for {
		s := &t.slots[i]
		if s.id == 0 {
			break
		}
		if s.parent == parent && s.sym == sym {
			return s.id
		}
		i = (i + 1) & t.mask
	}
	n := len(t.Parent)
	if n >= t.maxNodes {
		t.fail(&LimitError{What: "window trie node count", Value: uint64(n) + 1, Limit: uint64(t.maxNodes)})
		return 0
	}
	if n >= t.growAt {
		t.rehash(2 * len(t.slots))
		i = h & t.mask
		for t.slots[i].id != 0 {
			i = (i + 1) & t.mask
		}
	}
	if n == cap(t.Parent) {
		// Double all four arrays at once: append alone would grow large
		// slices by a quarter at a time, copying each node many times.
		t.Parent = slices.Grow(t.Parent, n)
		t.Sym = slices.Grow(t.Sym, n)
		t.Depth = slices.Grow(t.Depth, n)
		t.Count = slices.Grow(t.Count, n)
	}
	id := uint32(n)
	t.slots[i] = trieSlot{parent: parent, sym: sym, id: id}
	t.Parent = append(t.Parent, parent)
	t.Sym = append(t.Sym, sym)
	t.Depth = append(t.Depth, t.Depth[parent]+1)
	t.Count = append(t.Count, 0)
	return id
}

// find returns the node of window parent·sym, or 0 if t has none. It
// only reads t, so finds may run concurrently with each other.
func (t *WindowTrie) find(parent, sym uint32) uint32 {
	for i := uint32(trieHash(parent, uint64(sym))) & t.mask; ; i = (i + 1) & t.mask {
		if s := &t.slots[i]; s.id == 0 || s.parent == parent && s.sym == sym {
			return s.id
		}
	}
}

func (t *WindowTrie) rehash(capacity int) {
	old := t.slots
	t.initSlots(capacity)
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := uint32(trieHash(s.parent, uint64(s.sym))) & t.mask
		for t.slots[i].id != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}

// Add interns every prefix of window, a sequence of events, and adds
// weight to the count of each prefix at least from symbols long: one call
// counts the occurrences of window[:from], window[:from+1], ..., window
// that start at the same position.
func (t *WindowTrie) Add(window []uint64, from int, weight uint64) {
	if len(window) > MaxWindowLen {
		t.fail(&LimitError{What: "window length", Value: uint64(len(window)), Limit: MaxWindowLen})
		return
	}
	var n uint32
	for d, v := range window {
		k, ok := t.rank(v)
		if !ok {
			return
		}
		if n = t.intern(n, k); n == 0 {
			return
		}
		if d+1 >= from {
			t.Count[n] += weight
		}
	}
}

// Merge adds every window of o to t with its count: a remap of o's ranks
// into t's dictionary, then of its nodes in node order, which visits each
// parent before its children.
func (t *WindowTrie) Merge(o *WindowTrie) {
	if o.err != nil {
		t.fail(o.err)
	}
	ranks := make([]uint32, len(o.Dict))
	for k, v := range o.Dict {
		var ok bool
		if ranks[k], ok = t.rank(v); !ok {
			return
		}
	}
	remap := make([]uint32, o.Len())
	for n := 1; n < o.Len(); n++ {
		id := t.intern(remap[o.Parent[n]], ranks[o.Sym[n]])
		if id == 0 {
			return
		}
		remap[n] = id
		t.Count[id] += o.Count[n]
	}
}

// CountWindowPart returns a trie counting every window of length
// minLen..maxLen in the grammar's expansion that starts in part part of
// parts of the start positions, in one walk per start position, and,
// with a non-nil p, only the windows p does not cut (see Pruning);
// windows shorter than minLen have count 0. Laid end to end, the rule
// bodies split into parts runs of about equal symbol counts, and a part
// walks the starts of the body symbols in its run. Every window
// occurrence is owned by one start of one body symbol (see countPart),
// so the counts of parts 0..parts-1 sum to the one-part count; a window
// may be a node of several parts' tries. The split is by body symbols,
// not by rules, because the start rule's body is most of a SEQUITUR
// grammar. It panics unless 0 <= part < parts. The trie comes from the
// pool Release returns tries to.
func (a *Analysis) CountWindowPart(minLen, maxLen int, p *Pruning, part, parts int) *WindowTrie {
	if part < 0 || part >= parts {
		panic(fmt.Sprintf("engine: part %d outside 0..%d", part, parts-1))
	}
	t := triePool.Get().(*WindowTrie)
	a.countPart(t, minLen, maxLen, p, part, parts)
	return t
}

// countPart is CountWindowPart into t, an empty trie.
//
// A window of the expansion either lies inside one nonterminal of some
// rule body — and is owned by that nonterminal's rule — or is owned by
// the lowest rule whose body it spans: it starts in one body symbol and
// either is that terminal itself or extends past the symbol's end.
// Weighting each rule's owned windows by the rule's use count therefore
// counts every window exactly once without expanding the trace. For a
// start o inside body symbol j, the owned lengths are those reaching
// past cum[j+1] (every length if j is a terminal); so each start is
// walked once, to depth min(maxLen, ruleLen-o) or to where p cuts it,
// counting from the shortest owned length up. The walker collects the
// ranks of overlapping starts' windows once, as one run.
func (a *Analysis) countPart(t *WindowTrie, minLen, maxLen int, p *Pruning, part, parts int) {
	if maxLen > MaxWindowLen {
		t.fail(&LimitError{What: "window length", Value: uint64(maxLen), Limit: MaxWindowLen})
		return
	}
	a.rankTerminals()
	if len(a.dict) > t.maxSyms {
		t.fail(&LimitError{What: "window trie symbol count", Value: uint64(len(a.dict)), Limit: uint64(t.maxSyms)})
		return
	}
	t.Dict = slices.Clip(a.dict) // shared: rank must append to a copy
	L, minL := uint64(maxLen), uint64(minLen)
	w := walkerPool.Get().(*walker)
	*w = walker{t: t, a: a, ends: a.rankEnds(maxLen - 1), maxLen: L, minLen: minLen,
		terms: w.terms[:0], vals: w.vals[:0], units: w.units[:0]}
	if p != nil {
		w.prune(p)
	}
	// The part walks body symbols [lo, hi) of the rule bodies laid end to
	// end; off is where rule r's body begins.
	size := 0
	for _, rhs := range a.ranked {
		size += len(rhs)
	}
	lo, hi := size*part/parts, size*(part+1)/parts
	off := 0
	for r, rhs := range a.ranked {
		jLo, jHi := max(lo-off, 0), min(hi-off, len(rhs))
		off += len(rhs)
		uses := a.Uses[r]
		cum := a.CumLens[r]
		total := cum[len(rhs)]
		if jLo >= jHi || uses == 0 || total < minL {
			continue
		}
		w.rule(int32(r), total, uses, jLo)
		for j := jLo; j < jHi; j++ {
			if !rhs[j].IsRule() {
				// A stretch of terminals, each starting windows of
				// every length.
				k := j + 1
				for k < jHi && !rhs[k].IsRule() {
					k++
				}
				w.starts(cum[j], cum[k], 0)
				j = k - 1
				continue
			}
			// The starts inside a nonterminal whose windows reach past
			// its end within maxLen.
			end := cum[j+1]
			w.starts(max(cum[j], end+1-min(end+1, L)), end, end)
		}
		if t.err != nil || off >= hi {
			break
		}
	}
	// Pooled, w keeps only its buffers, not the grammar or the trie.
	*w = walker{terms: w.terms[:0], vals: w.vals[:0], units: w.units[:0]}
	walkerPool.Put(w)
}

// walkerPool holds walkers between counts, so a count of a small chunk
// collects its runs into buffers an earlier count already grew.
var walkerPool = sync.Pool{New: func() any { return new(walker) }}

// walker adds the windows of one rule at a time to a trie, walking each
// start's window as soon as it reaches it. It collects the ranks of a
// run of overlapping windows once, into terms, and drops the part of the
// run before each later call's first start, so that a run spanning a
// whole rule does not grow terms with it.
//
// A pruned walker (see Pruning) also keeps, for each position of terms,
// the pass-1 value of the MinLen window starting there and a prefix sum
// of unit costs, so it can cut each start's window in starts without
// walking it.
type walker struct {
	t     *WindowTrie
	a     *Analysis
	ends  *rankEnds
	terms []uint32 // the run's ranks, terms[i] at position runLo+i

	r            int32  // the rule walked
	at           int    // a body index at or before the symbol holding position runHi, where collect resumes
	total, uses  uint64 // its expansion length and use count
	runLo, runHi uint64 // the run's positions in the rule, [runLo, runHi)
	maxLen       uint64
	minLen       int

	p *Pruning // nil for an unpruned count
	// With p: vals[i] is the pass-1 value of the MinLen window at terms[i],
	// units[i] the saturating sum of the unit costs of terms[:i] (plus
	// those of the ranks dropped since the run began), and toBase and cost
	// map the grammar's ranks to p's base ranks (noRank for none) and unit
	// costs. node is the base node of the window one position before the
	// next value's, or 0 if that window has no node or no value.
	vals, units []uint64
	toBase      []uint32
	cost        []uint64
	node        uint32
}

// noRank marks a grammar rank with no rank in a pruning's base trie.
const noRank = math.MaxUint32

// prune makes w a walker pruned by p.
func (w *walker) prune(p *Pruning) {
	w.p = p
	w.toBase = make([]uint32, len(w.a.dict))
	w.cost = make([]uint64, len(w.a.dict))
	for k, v := range w.a.dict {
		b, ok := p.ranks[v]
		if !ok {
			b = noRank
		}
		w.toBase[k], w.cost[k] = b, p.cost(v)
	}
}

// rule starts the walk of rule r, of expansion length total and used uses
// times, from body symbol j on.
func (w *walker) rule(r int32, total, uses uint64, j int) {
	w.r, w.total, w.uses, w.at = r, total, uses, j
	w.runLo, w.runHi, w.node = 0, 0, 0
}

// starts walks the windows of rule w.r from each start position o in
// [lo, hi) that own a length in minLen..maxLen, each cut where the
// walker's pruning cuts it. The windows from o owned by the rule are
// those reaching past position end, every window if o >= end. Calls must
// come in increasing position order within a rule.
func (w *walker) starts(lo, hi, end uint64) {
	if lo >= hi {
		return
	}
	switch {
	case lo >= w.runHi:
		// A new run.
		w.terms = w.terms[:0]
		if w.p != nil {
			w.vals, w.units = w.vals[:0], append(w.units[:0], 0)
			w.node = 0
		}
		w.runLo, w.runHi = lo, lo
	case lo > w.runLo:
		// No window left to walk starts before lo: drop that part.
		d := int(lo - w.runLo)
		w.terms = w.terms[:copy(w.terms, w.terms[d:])]
		if w.p != nil {
			if d > len(w.vals) {
				// The next value's window does not follow node's.
				w.node = 0
			}
			w.vals = w.vals[:copy(w.vals, w.vals[min(d, len(w.vals)):])]
			w.units = w.units[:copy(w.units, w.units[d:])]
		}
		w.runLo = lo
	}
	if need := min(w.total, hi-1+w.maxLen); need > w.runHi {
		w.terms, w.at = w.ends.collect(w.r, w.at, w.runHi, need-w.runHi, w.terms)
		w.runHi = need
		if w.p != nil {
			w.extend()
		}
	}
	minL := uint64(w.minLen)
	for o := lo; o < hi; o++ {
		from := minL
		if o < end {
			from = max(minL, end-o+1)
		}
		if o+from > w.total {
			return // so do the later starts: o+from only grows with o
		}
		off := int(o - w.runLo)
		n := int(min(w.total, o+w.maxLen) - o)
		if w.p != nil {
			if n = w.cut(off, n); n < int(from) {
				continue
			}
		}
		w.walk(w.terms[off:off+n], int(from))
	}
}

// walk interns every prefix of win, a window of ranks, and adds the
// rule's use count to each prefix at least from symbols long.
func (w *walker) walk(win []uint32, from int) {
	var n uint32
	for d, k := range win {
		if n = w.t.intern(n, k); n == 0 {
			return
		}
		if d+1 >= from {
			w.t.Count[n] += w.uses
		}
	}
}

// extend brings vals and units up to the end of terms.
func (w *walker) extend() {
	n := len(w.terms)
	w.units = slices.Grow(w.units, n+1-len(w.units))
	for i := len(w.units) - 1; i < n; i++ {
		w.units = append(w.units, addSat(w.units[i], w.cost[w.terms[i]]))
	}
	w.vals = slices.Grow(w.vals, n-len(w.vals))
	m := w.p.minLen
	for i := len(w.vals); i+m <= n; i++ {
		w.vals = append(w.vals, w.value(w.terms[i:i+m]))
	}
}

// value is the pass-1 value of win, the MinLen window of the grammar's
// ranks one position past node's, and makes node win's node. The window
// win drops node's first event and adds its last one, so win's node is
// one find from node's suffix link. Without a node or a link, it
// descends from the root (descend); a last rank base lacks leaves win
// without a node.
func (w *walker) value(win []uint32) uint64 {
	if l := w.p.link[w.node]; l == noLink {
		w.node = w.descend(win)
	} else if k := w.toBase[win[len(win)-1]]; k == noRank {
		w.node = 0
	} else {
		w.node = w.p.base.find(l, k)
	}
	return w.p.vals[w.node]
}

// descend returns the base node of the window of the grammar's ranks
// win, found from the root, or 0 if base has none.
func (w *walker) descend(win []uint32) uint32 {
	var n uint32
	for _, k := range win {
		if k = w.toBase[k]; k == noRank {
			return 0
		}
		if n = w.p.base.find(n, k); n == 0 {
			return 0
		}
	}
	return n
}

// cut is Pruning.cut for the window of n terms at terms[off]: its unit
// cost is bounded by a difference of prefix sums, or by MaxUint64 once
// the sums saturate.
func (w *walker) cut(off, n int) int {
	unit := uint64(math.MaxUint64)
	if u := w.units[off+n]; u != math.MaxUint64 {
		unit = u - w.units[off]
	}
	return w.p.cut(w.vals[off:off+n-w.p.minLen+1], unit)
}

// CountWindows accumulates, for every distinct window of length l in the
// grammar's expansion, its total occurrence count, keyed by the
// concatenated 8-byte big-endian encodings of the window's symbols. It is
// the single-length, unpruned, one-part case of CountWindowPart, and
// panics if l is outside 1..MaxWindowLen.
func (a *Analysis) CountWindows(l int, counts map[string]uint64) {
	if l < 1 || l > MaxWindowLen {
		panic(fmt.Sprintf("engine: CountWindows length %d outside 1..%d", l, MaxWindowLen))
	}
	t := a.CountWindowPart(l, l, nil, 0, 1)
	defer t.Release()
	if t.err != nil {
		panic(t.err) // 2^32 distinct windows or symbols in one grammar: beyond addressable memory
	}
	var syms []uint64
	var key []byte
	for n := 1; n < t.Len(); n++ {
		if int(t.Depth[n]) != l || t.Count[n] == 0 {
			continue
		}
		syms = t.Window(uint32(n), syms[:0])
		key = key[:0]
		for _, v := range syms {
			key = binary.BigEndian.AppendUint64(key, v)
		}
		counts[string(key)] += t.Count[n]
	}
}
