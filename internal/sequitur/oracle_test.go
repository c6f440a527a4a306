package sequitur

// The behavioral oracle for the arena rewrite: a direct transliteration
// of the original pointer-chased, map-indexed SEQUITUR implementation
// this package shipped before symbols moved into an arena and the
// digram index became an open-addressing table. The arena layout is a
// pure memory-representation change, so on every input the two
// implementations must produce identical snapshots; the fuzzer and
// property tests below hold them to that, byte for byte.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

type oracleSymbol struct {
	next, prev *oracleSymbol
	value      uint64
	rule       *oracleRule
	guard      bool
}

func (s *oracleSymbol) isNonterminal() bool { return !s.guard && s.rule != nil }

type oracleRule struct {
	guardSym *oracleSymbol
	uses     int
	id       uint64
	inlined  bool // expanded away; its guard's links are stale
}

func newOracleRule(id uint64) *oracleRule {
	r := &oracleRule{id: id}
	g := &oracleSymbol{guard: true, rule: r}
	g.next, g.prev = g, g
	r.guardSym = g
	return r
}

func (r *oracleRule) first() *oracleSymbol { return r.guardSym.next }
func (r *oracleRule) last() *oracleSymbol  { return r.guardSym.prev }

func oracleKey(s *oracleSymbol) uint64 {
	if s.isNonterminal() {
		return ^s.rule.id
	}
	return s.value
}

func oracleDigramOf(s *oracleSymbol) digram { return digram{oracleKey(s), oracleKey(s.next)} }

type oracleGrammar struct {
	start  *oracleRule
	index  map[digram]*oracleSymbol
	nextID uint64
	opts   Options
}

func newOracle() *oracleGrammar { return newOracleWithOptions(Options{}) }

func newOracleWithOptions(opts Options) *oracleGrammar {
	g := &oracleGrammar{index: map[digram]*oracleSymbol{}, nextID: 1, opts: opts}
	g.start = newOracleRule(0)
	return g
}

func (g *oracleGrammar) Append(v uint64) {
	s := &oracleSymbol{value: v}
	g.link(g.start.last(), s)
	if !s.prev.guard {
		g.check(s.prev)
	}
}

func (g *oracleGrammar) link(p, n *oracleSymbol) {
	n.next = p.next
	n.prev = p
	p.next.prev = n
	p.next = n
	if n.isNonterminal() {
		n.rule.uses++
	}
}

func (g *oracleGrammar) unlink(s *oracleSymbol) {
	if !s.prev.guard {
		g.forgetDigram(s.prev)
	}
	if !s.next.guard {
		g.forgetDigram(s)
	}
	s.prev.next = s.next
	s.next.prev = s.prev
	if s.isNonterminal() {
		s.rule.uses--
	}
}

func (g *oracleGrammar) forgetDigram(s *oracleSymbol) {
	d := oracleDigramOf(s)
	if g.index[d] == s {
		delete(g.index, d)
	}
}

func (g *oracleGrammar) check(s *oracleSymbol) bool {
	if s.guard || s.next.guard {
		return false
	}
	d := oracleDigramOf(s)
	m, ok := g.index[d]
	if !ok {
		g.index[d] = s
		return false
	}
	if m == s {
		return false
	}
	if m.next == s || s.next == m {
		return false
	}
	g.match(s, m)
	return true
}

func (g *oracleGrammar) match(s, m *oracleSymbol) {
	var r *oracleRule
	if m.prev.guard && m.next.next.guard {
		r = m.prev.rule
		g.substitute(s, r)
	} else {
		r = newOracleRule(g.nextID)
		g.nextID++
		g.link(r.guardSym, g.copySym(s))
		g.link(r.first(), g.copySym(s.next))
		g.substitute(m, r)
		g.substitute(s, r)
		if r.inlined {
			return
		}
		g.index[oracleDigramOf(r.first())] = r.first()
	}
	if g.opts.DisableRuleUtility || r.inlined {
		return
	}
	if f := r.first(); f.isNonterminal() && f.rule.uses == 1 {
		g.expand(f)
	}
	if l := r.last(); !r.inlined && l.isNonterminal() && l.rule.uses == 1 {
		g.expand(l)
	}
}

func (g *oracleGrammar) copySym(s *oracleSymbol) *oracleSymbol {
	return &oracleSymbol{value: s.value, rule: s.rule}
}

func (g *oracleGrammar) substitute(s *oracleSymbol, r *oracleRule) {
	p := s.prev
	g.unlink(s.next)
	g.unlink(s)
	n := &oracleSymbol{rule: r}
	g.link(p, n)
	if !p.guard && g.check(p) {
		return
	}
	if !n.next.guard {
		g.check(n)
	}
}

func (g *oracleGrammar) expand(u *oracleSymbol) {
	r := u.rule
	r.inlined = true
	left := u.prev
	right := u.next
	first := r.first()
	last := r.last()
	g.unlink(u)
	left.next = first
	first.prev = left
	last.next = right
	right.prev = last
	if !left.guard {
		if g.check(left) {
			return
		}
	}
	if !right.guard {
		g.check(last)
	}
}

// Snapshot mirrors Grammar.Snapshot on the oracle's pointer layout.
func (g *oracleGrammar) Snapshot() *Snapshot {
	indexOf := map[*oracleRule]int32{g.start: 0}
	order := []*oracleRule{g.start}
	for i := 0; i < len(order); i++ {
		for s := order[i].first(); !s.guard; s = s.next {
			if s.isNonterminal() {
				if _, ok := indexOf[s.rule]; !ok {
					indexOf[s.rule] = int32(len(order))
					order = append(order, s.rule)
				}
			}
		}
	}
	snap := &Snapshot{Rules: make([][]Sym, len(order))}
	for i, r := range order {
		var rhs []Sym
		for s := r.first(); !s.guard; s = s.next {
			if s.isNonterminal() {
				rhs = append(rhs, Sym{Rule: indexOf[s.rule]})
			} else {
				rhs = append(rhs, Sym{Rule: -1, Value: s.value})
			}
		}
		snap.Rules[i] = rhs
	}
	return snap
}

// compareToOracle feeds one input to both implementations and fails on
// any observable divergence: snapshots (and therefore encodings), the
// expansion, and the live-grammar invariants.
func compareToOracle(t *testing.T, input []uint64, opts Options) {
	t.Helper()
	g := NewWithOptions(opts)
	o := newOracleWithOptions(opts)
	for _, v := range input {
		g.Append(v)
		o.Append(v)
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("arena grammar invariants: %v (input %v)", err, input)
	}
	gs, os := g.Snapshot(), o.Snapshot()
	if !reflect.DeepEqual(gs, os) {
		t.Fatalf("arena snapshot diverges from oracle\n input: %v\n arena: %+v\noracle: %+v", input, gs.Rules, os.Rules)
	}
	slack := 2 + len(input)/50
	if d := g.Snapshot().DigramDuplicates(); d > slack {
		t.Fatalf("%d duplicate digrams over %d inputs, slack %d", d, len(input), slack)
	}
	if m := g.UnindexedDigrams(); m > slack {
		t.Fatalf("%d unindexed digrams over %d inputs, slack %d", m, len(input), slack)
	}
}

// FuzzArenaOracleParity drives arbitrary byte streams through the arena
// implementation and the pointer/map oracle and fails on any snapshot
// divergence. The alphabet is kept small so repeated digrams (rule
// creation, reuse, expansion) dominate; seeds include long runs of one
// symbol, which stress exactly the overlap handling and the table's
// backward-shift deletion path.
func FuzzArenaOracleParity(f *testing.F) {
	for _, c := range oracleCorpus {
		f.Add(c.data, c.disableUtility)
	}
	f.Fuzz(func(t *testing.T, data []byte, disableUtility bool) {
		compareToOracle(t, oracleInput(data), Options{DisableRuleUtility: disableUtility})
	})
}

// oracleCorpus is FuzzArenaOracleParity's seed corpus; the reservation
// test replays it too.
var oracleCorpus = []struct {
	data           []byte
	disableUtility bool
}{
	{[]byte{}, false},
	{[]byte{1, 2, 3, 1, 2, 3}, false},
	{bytes.Repeat([]byte{7}, 64), false},                            // one long run
	{bytes.Repeat([]byte{7}, 41), true},                             // odd-length run, utility off
	{bytes.Repeat([]byte{1, 1, 1, 1, 2}, 20), false},                // runs broken by a separator
	{bytes.Repeat([]byte{'a', 'b', 'c', 'd', 'b', 'c'}, 12), false}, // the DCC'97 example, repeated
	{[]byte{7, 5, 0, 1, 1, 5, 3, 3, 4, 1, 3, 5, 5, 5, 4, 2, 4, 0, 6, 2, 7, 4, 3, 5, 6, 2, 7, 5, 5, 4, 5, 2}, false}, // single-use rule at a body's end
}

// oracleInput maps fuzz bytes to terminals: at most 4096 of them, over
// an alphabet of 8, so repeated digrams (rule creation, reuse,
// expansion) dominate.
func oracleInput(data []byte) []uint64 {
	if len(data) > 1<<12 {
		data = data[:1<<12]
	}
	in := make([]uint64, len(data))
	for i, b := range data {
		in[i] = uint64(b % 8)
	}
	return in
}

// TestArenaOracleParityRandom is the always-on slice of the fuzz
// property: random tapes over several alphabet sizes, biased toward the
// run-heavy inputs that exercise overlapping digrams.
func TestArenaOracleParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		alpha := 1 + rng.Intn(6)
		n := rng.Intn(500)
		in := make([]uint64, 0, n)
		for len(in) < n {
			v := uint64(rng.Intn(alpha))
			run := 1
			if rng.Intn(4) == 0 { // a quarter of draws become runs
				run = 1 + rng.Intn(12)
			}
			for k := 0; k < run && len(in) < n; k++ {
				in = append(in, v)
			}
		}
		compareToOracle(t, in, Options{})
		compareToOracle(t, in, Options{DisableRuleUtility: true})
	}
}

// TestResetReuseMatchesOracleAcrossChunks pins the pooled-grammar
// contract end to end: one arena grammar, Reset between chunk
// compressions, must reproduce a fresh oracle's snapshot encoding for
// every chunk of a long stream — the exact reuse pattern of the parallel
// builder's workers.
func TestResetReuseMatchesOracleAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	stream := make([]uint64, 20000)
	for i := range stream {
		if i > 0 && rng.Intn(3) > 0 {
			stream[i] = stream[i-1] // run-heavy
		} else {
			stream[i] = uint64(rng.Intn(6))
		}
	}
	pooled := New()
	for _, chunkSize := range []int{1, 7, 256, 4096} {
		for lo := 0; lo < len(stream); lo += chunkSize {
			hi := min(lo+chunkSize, len(stream))
			pooled.Reset()
			o := newOracle()
			for _, v := range stream[lo:hi] {
				pooled.Append(v)
				o.Append(v)
			}
			pb, _ := pooled.Snapshot().AppendEncoding(nil, nil)
			ob, _ := o.Snapshot().AppendEncoding(nil, nil)
			if !bytes.Equal(pb, ob) {
				t.Fatalf("chunk [%d,%d): pooled grammar encoding diverges from fresh oracle (chunkSize %d)", lo, hi, chunkSize)
			}
			if err := pooled.Verify(); err != nil {
				t.Fatalf("chunk [%d,%d): %v", lo, hi, err)
			}
		}
	}
}
