package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
	sym    uint64
	parent uint32
	id     uint32
}

// WindowTrie numbers and counts windows. Node n is the window whose last
// symbol is Sym[n] and whose other symbols form window Parent[n]; parents
// always have smaller IDs than their children, so one forward pass over
// the nodes can extend any per-window quantity from its prefix.
type WindowTrie struct {
	// Parent[n] is the node of window n without its last symbol.
	Parent []uint32
	// Sym[n] is the last symbol of window n.
	Sym []uint64
	// Depth[n] is the length of window n.
	Depth []uint8
	// Count[n] is the number of occurrences of window n added so far.
	Count []uint64

	slots    []trieSlot
	mask     uint32
	growAt   int
	maxNodes int
	err      error
}

const minTrieSlots = 64

// NewWindowTrie returns a trie holding only the root (the empty window).
func NewWindowTrie() *WindowTrie {
	t := &WindowTrie{
		Parent:   []uint32{0},
		Sym:      []uint64{0},
		Depth:    []uint8{0},
		Count:    []uint64{0},
		maxNodes: maxTrieNodes,
	}
	t.initSlots(minTrieSlots)
	return t
}

// Len reports the number of nodes, root included.
func (t *WindowTrie) Len() int { return len(t.Parent) }

// Err reports the first limit the trie ran into, as a *LimitError; once
// set, the trie stops adding windows and its counts are incomplete.
func (t *WindowTrie) Err() error { return t.err }

// Window appends node n's symbols, first to last, to dst.
func (t *WindowTrie) Window(n uint32, dst []uint64) []uint64 {
	d := int(t.Depth[n])
	start := len(dst)
	for i := 0; i < d; i++ {
		dst = append(dst, 0)
	}
	for i := start + d - 1; n != 0; i-- {
		dst[i] = t.Sym[n]
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

// intern returns the node of window parent·sym, creating it if absent.
// It returns 0 — the root, never a child — once the node-ID space is
// exhausted, and records the failure in Err.
func (t *WindowTrie) intern(parent uint32, sym uint64) uint32 {
	return t.internHashed(uint32(trieHash(parent, sym)), parent, sym)
}

// internHashed is intern given the key's hash.
func (t *WindowTrie) internHashed(h, parent uint32, sym uint64) uint32 {
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
	t.slots[i] = trieSlot{sym: sym, parent: parent, id: id}
	t.Parent = append(t.Parent, parent)
	t.Sym = append(t.Sym, sym)
	t.Depth = append(t.Depth, t.Depth[parent]+1)
	t.Count = append(t.Count, 0)
	return id
}

func (t *WindowTrie) rehash(capacity int) {
	old := t.slots
	t.initSlots(capacity)
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := uint32(trieHash(s.parent, s.sym)) & t.mask
		for t.slots[i].id != 0 {
			i = (i + 1) & t.mask
		}
		t.slots[i] = s
	}
}

// Add interns every prefix of window and adds weight to the count of each
// prefix at least from symbols long: one call counts the occurrences of
// window[:from], window[:from+1], ..., window that start at the same
// position.
func (t *WindowTrie) Add(window []uint64, from int, weight uint64) {
	if len(window) > MaxWindowLen {
		t.fail(&LimitError{What: "window length", Value: uint64(len(window)), Limit: MaxWindowLen})
		return
	}
	var n uint32
	for d, v := range window {
		if n = t.intern(n, v); n == 0 {
			return
		}
		if d+1 >= from {
			t.Count[n] += weight
		}
	}
}

// Merge adds every window of o to t with its count: a remap in node
// order, which visits each parent before its children.
func (t *WindowTrie) Merge(o *WindowTrie) {
	if o.err != nil {
		t.fail(o.err)
	}
	remap := make([]uint32, o.Len())
	for n := 1; n < o.Len(); n++ {
		id := t.intern(remap[o.Parent[n]], o.Sym[n])
		if id == 0 {
			return
		}
		remap[n] = id
		t.Count[id] += o.Count[n]
	}
}

// CountWindowRange returns a new trie counting every window of length
// minLen..maxLen in the grammar's expansion, in one walk per start
// position; windows shorter than minLen have count 0. It is the
// one-shard case of CountWindowShard.
func (a *Analysis) CountWindowRange(minLen, maxLen int) *WindowTrie {
	return a.CountWindowShard(minLen, maxLen, 0, 1)
}

// ShardOf returns the prefix shard, in 0..shards-1, of the windows that
// begin with prefix: a hash of its symbols mod shards, and 0 without
// hashing when there is one shard.
func ShardOf(prefix []uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	var h uint64
	for _, v := range prefix {
		h = trieHash(uint32(h), v)
	}
	return int(h % uint64(shards))
}

// CountWindowShard is CountWindowRange restricted to prefix shard shard
// of shards: it counts only the windows whose start position routes to
// the shard, by ShardOf of the start's first minLen symbols. Every window
// counted from a start is at least minLen long, so it begins with that
// prefix, and so do all its own prefixes of length minLen and more. The
// shards of one grammar are therefore disjoint: each counted window, and
// each window of depth minLen or more, is a node of exactly one shard's
// trie, and their counts together are CountWindowRange's. Only windows
// shorter than minLen, whose counts are always 0, repeat across shards.
// It panics unless 0 <= shard < shards.
//
// A window of the expansion either lies inside one nonterminal of some
// rule body — and is owned by that nonterminal's rule — or is owned by
// the lowest rule whose body it spans: it starts in one body symbol and
// either is that terminal itself or extends past the symbol's end.
// Weighting each rule's owned windows by the rule's use count therefore
// counts every window exactly once without expanding the trace. For a
// start o inside body symbol j, the owned lengths are those reaching
// past cum[j+1] (every length if j is a terminal); so each start is
// walked once, to depth min(maxLen, ruleLen-o), counting from the
// shortest owned length up. Starts are grouped into contiguous runs so
// each run's terminals are materialized once.
func (a *Analysis) CountWindowShard(minLen, maxLen, shard, shards int) *WindowTrie {
	if shard < 0 || shard >= shards {
		panic(fmt.Sprintf("engine: shard %d outside 0..%d", shard, shards-1))
	}
	t := NewWindowTrie()
	if maxLen > MaxWindowLen {
		t.fail(&LimitError{What: "window length", Value: uint64(maxLen), Limit: MaxWindowLen})
		return t
	}
	L, minL := uint64(maxLen), uint64(minLen)
	var terms []uint64
	var starts []uint64
	var froms []int
	w := walker{t: t, minLen: minLen, shard: shard, shards: shards}
	for r, rhs := range a.Snap.Rules {
		uses := a.Uses[r]
		cum := a.CumLens[r]
		total := cum[len(rhs)]
		if uses == 0 || total < minL {
			continue
		}
		// Collect the rule's starts, in position order, with the
		// shortest length each owns.
		starts, froms = starts[:0], froms[:0]
		for j, s := range rhs {
			end := cum[j+1]
			if !s.IsRule() {
				o := cum[j]
				if o+minL <= total {
					starts, froms = append(starts, o), append(froms, minLen)
				}
				continue
			}
			lo := cum[j]
			if end-lo >= L {
				lo = end - L + 1
			}
			for o := lo; o < end; o++ {
				from := max(minL, end-o+1)
				if from > L || o+from > total {
					continue
				}
				starts, froms = append(starts, o), append(froms, int(from))
			}
		}
		for i := 0; i < len(starts); {
			k := i + 1
			for k < len(starts) && starts[k] == starts[k-1]+1 {
				k++
			}
			lo := starts[i]
			hi := min(total, starts[k-1]+L)
			terms = a.Collect(int32(r), lo, hi-lo, terms[:0])
			for ; i < k; i++ {
				o := starts[i] - lo
				w.add(terms[o:min(uint64(len(terms)), o+L)], froms[i], uses)
			}
		}
		if t.err != nil {
			break
		}
	}
	w.flush()
	return t
}

// walkBatch is how many windows a walker steps through together.
const walkBatch = 64

// walker adds windows to a trie a batch at a time, stepping every window
// of the batch one symbol deeper per round. The table probes of one
// round are independent of each other, so the round first touches every
// probe's home slot — loads the processor can have in flight together —
// and then interns against a warm cache; a walk one window at a time
// would instead wait out each cache miss in turn.
//
// A walker counting one prefix shard drops, in add, every window whose
// first minLen symbols route to another shard.
type walker struct {
	t     *WindowTrie
	terms []uint64 // the batch's windows, back to back
	win   [walkBatch]batchWindow
	k     int    // windows queued
	sink  uint32 // consumes the touch loads so the compiler keeps them

	minLen, shard, shards int
}

// batchWindow is one queued window, terms[off:off+n], with its Add
// arguments and its walk state: the node reached so far and the hash of
// the next key to intern.
type batchWindow struct {
	off, n, from int
	weight       uint64
	node, h      uint32
}

// add queues Add(window, from, weight) if the window's prefix routes to
// the walker's shard.
func (w *walker) add(window []uint64, from int, weight uint64) {
	if w.shards > 1 && ShardOf(window[:w.minLen], w.shards) != w.shard {
		return
	}
	w.win[w.k] = batchWindow{off: len(w.terms), n: len(window), from: from, weight: weight}
	w.terms = append(w.terms, window...)
	if w.k++; w.k == walkBatch {
		w.flush()
	}
}

// flush walks the queued windows.
func (w *walker) flush() {
	t, win := w.t, w.win[:w.k]
	depth := 0
	for i := range win {
		depth = max(depth, win[i].n)
	}
	for d := 0; d < depth && t.err == nil; d++ {
		var sink uint32
		for i := range win {
			if b := &win[i]; d < b.n {
				b.h = uint32(trieHash(b.node, w.terms[b.off+d]))
				sink += t.slots[b.h&t.mask].id
			}
		}
		w.sink += sink
		for i := range win {
			if b := &win[i]; d < b.n {
				b.node = t.internHashed(b.h, b.node, w.terms[b.off+d])
			}
		}
		for i := range win {
			if b := &win[i]; d < b.n && d+1 >= b.from {
				t.Count[b.node] += b.weight
			}
		}
	}
	w.k, w.terms = 0, w.terms[:0]
}

// CountWindows accumulates, for every distinct window of length l in the
// grammar's expansion, its total occurrence count, keyed by the
// concatenated 8-byte big-endian encodings of the window's symbols. It is
// the single-length case of CountWindowRange, and panics if l is outside
// 1..MaxWindowLen.
func (a *Analysis) CountWindows(l int, counts map[string]uint64) {
	if l < 1 || l > MaxWindowLen {
		panic(fmt.Sprintf("engine: CountWindows length %d outside 1..%d", l, MaxWindowLen))
	}
	t := a.CountWindowRange(l, l)
	if t.err != nil {
		panic(t.err) // 2^32 distinct windows in one grammar: beyond addressable memory
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
