package sequitur

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// Binary layout of an encoded Snapshot (all integers unsigned varints):
//
//	magic "SQG1" (4 bytes)
//	numRules
//	for each rule: rhsLen, then rhsLen symbols
//
// A symbol is a single varint: terminals encode as value<<1, rule
// references as ruleIndex<<1|1. Terminal values are < MaxTerminal = 2^62,
// so the shift cannot overflow.

var magic = [4]byte{'S', 'Q', 'G', '1'}

// AppendEncoding appends the snapshot's encoding to buf and returns the
// extended slice; it is the package's one encoder. With a nil rank every
// terminal is written as its value. A container that dictionary-codes
// its terminals passes rank, which maps a value to the number written in
// its place; a value rank does not know fails the encode, and buf is
// returned as it was given.
func (sn *Snapshot) AppendEncoding(buf []byte, rank func(uint64) (uint64, bool)) ([]byte, error) {
	start := len(buf)
	buf = append(buf, magic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(sn.Rules)))
	for i, rhs := range sn.Rules {
		buf = binary.AppendUvarint(buf, uint64(len(rhs)))
		for j, s := range rhs {
			if s.IsRule() {
				buf = binary.AppendUvarint(buf, uint64(s.Rule)<<1|1)
				continue
			}
			v := s.Value
			if rank != nil {
				r, ok := rank(v)
				if !ok {
					return buf[:start], fmt.Errorf("sequitur: rule %d sym %d: terminal %d has no rank", i, j, v)
				}
				v = r
			}
			buf = binary.AppendUvarint(buf, v<<1)
		}
	}
	return buf, nil
}

// EncodedSize is the length of the snapshot's encoding, unranked.
func (sn *Snapshot) EncodedSize() int64 {
	buf, _ := sn.AppendEncoding(nil, nil)
	return int64(len(buf))
}

// UvarintLen is the number of bytes binary.PutUvarint writes for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// maxRules caps the rule count and every rule length a decoder accepts.
const maxRules = 1 << 31

// Scan returns the length of the snapshot encoding that starts data,
// without building the snapshot, so a container can delimit snapshots
// written back to back. Its framing and plausibility caps are Decode's;
// rule-reference range checks are left to Decode.
func Scan(data []byte) (int, error) {
	d := decoder{data: data}
	numRules, err := d.header()
	if err != nil {
		return 0, err
	}
	for i := uint64(0); i < numRules; i++ {
		rhsLen, err := d.ruleLen(i)
		if err != nil {
			return 0, err
		}
		for j := uint64(0); j < rhsLen; j++ {
			if _, ok := d.uvarint(); !ok {
				return 0, fmt.Errorf("sequitur: rule %d sym %d: %w", i, j, io.ErrUnexpectedEOF)
			}
		}
	}
	return d.off, nil
}

// Decode builds the snapshot AppendEncoding wrote into data. data must hold
// exactly one encoding: trailing bytes are an error.
func Decode(data []byte) (*Snapshot, error) {
	d := decoder{data: data}
	numRules, err := d.header()
	if err != nil {
		return nil, err
	}
	// Every rule and every symbol takes at least one input byte, so the
	// bytes left cap each table before its entries are read: a corrupt
	// count fails at the end of data instead of sizing a table for it.
	sn := &Snapshot{Rules: make([][]Sym, 0, min(numRules, d.left()))}
	for i := uint64(0); i < numRules; i++ {
		rhsLen, err := d.ruleLen(i)
		if err != nil {
			return nil, err
		}
		rhs := make([]Sym, 0, min(rhsLen, d.left()))
		for j := uint64(0); j < rhsLen; j++ {
			v, ok := d.uvarint()
			if !ok {
				return nil, fmt.Errorf("sequitur: rule %d sym %d: %w", i, j, io.ErrUnexpectedEOF)
			}
			if v&1 == 1 {
				ri := v >> 1
				if ri >= numRules {
					return nil, fmt.Errorf("sequitur: rule %d sym %d: rule reference %d out of range", i, j, ri)
				}
				rhs = append(rhs, Sym{Rule: int32(ri)})
			} else {
				rhs = append(rhs, Sym{Rule: -1, Value: v >> 1})
			}
		}
		sn.Rules = append(sn.Rules, rhs)
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("sequitur: %d trailing bytes after snapshot", len(data)-d.off)
	}
	return sn, nil
}

// decoder is a bounds-checked cursor over one snapshot encoding.
type decoder struct {
	data []byte
	off  int
}

// left is the number of bytes not yet read.
func (d *decoder) left() uint64 { return uint64(len(d.data) - d.off) }

// uvarint reads one varint; ok is false if data ends inside it or it
// overflows 64 bits.
func (d *decoder) uvarint() (v uint64, ok bool) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, false
	}
	d.off += n
	return v, true
}

// header reads the magic and the rule count.
func (d *decoder) header() (uint64, error) {
	if len(d.data) < len(magic) {
		return 0, fmt.Errorf("sequitur: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if [4]byte(d.data) != magic {
		return 0, fmt.Errorf("sequitur: bad magic %q", d.data[:len(magic)])
	}
	d.off = len(magic)
	numRules, ok := d.uvarint()
	if !ok {
		return 0, fmt.Errorf("sequitur: reading rule count: %w", io.ErrUnexpectedEOF)
	}
	if numRules > maxRules {
		return 0, fmt.Errorf("sequitur: implausible rule count %d", numRules)
	}
	return numRules, nil
}

// ruleLen reads rule i's right-hand-side length.
func (d *decoder) ruleLen(i uint64) (uint64, error) {
	n, ok := d.uvarint()
	if !ok {
		return 0, fmt.Errorf("sequitur: rule %d: reading length: %w", i, io.ErrUnexpectedEOF)
	}
	if n > maxRules {
		return 0, fmt.Errorf("sequitur: rule %d: implausible length %d", i, n)
	}
	return n, nil
}

// ErrExpansionOverflow reports a grammar whose expansion is longer than
// a uint64 can count. A handful of doubling rules reach that length, so
// an encoded snapshot can claim it in a few hundred bytes.
var ErrExpansionOverflow = errors.New("expansion length overflows 64 bits")

// Validate checks that the snapshot is well formed and acyclic: no rule
// (except possibly the start rule) has fewer than two symbols, every
// rule reference is in range, the reference graph has no cycles (a
// cyclic grammar would expand forever), and no rule's expansion length
// overflows 64 bits (ErrExpansionOverflow), so ExpandedLen is exact on
// a valid snapshot.
func (sn *Snapshot) Validate() error {
	_, err := sn.CheckedLen()
	return err
}

// CheckedLen is Validate and ExpandedLen in one pass over the grammar:
// it returns each rule's expansion length, or the error Validate would.
func (sn *Snapshot) CheckedLen() ([]uint64, error) {
	if len(sn.Rules) == 0 {
		return nil, fmt.Errorf("sequitur: snapshot has no rules")
	}
	for i := 1; i < len(sn.Rules); i++ {
		if len(sn.Rules[i]) < 2 {
			return nil, fmt.Errorf("sequitur: rule %d has %d symbols (min 2)", i, len(sn.Rules[i]))
		}
	}
	return sn.Weigh(nil)
}

// ExpandedLen returns the length of the full expansion of each rule. It
// is exact on a snapshot Validate accepts.
func (sn *Snapshot) ExpandedLen() []uint64 {
	lens, _ := sn.Weigh(nil)
	return lens
}

// Weigh returns, for each rule, the sum of weight(v) over the terminals
// v of its expansion, computed bottom-up in time proportional to the
// grammar rather than the expansion. A nil weight counts every terminal
// as 1, which gives the expansion lengths. Weigh stops at the first
// out-of-range reference, cycle or sum that overflows 64 bits
// (ErrExpansionOverflow), leaving the sums it has not reached at zero.
// It walks an explicit stack, so deep grammars cannot exhaust the
// goroutine stack.
func (sn *Snapshot) Weigh(weight func(uint64) uint64) ([]uint64, error) {
	n := len(sn.Rules)
	sums := make([]uint64, n)
	state := make([]int8, n) // 0 unvisited, 1 on the stack, 2 done
	type frame struct {
		rule, pos int
		sum       uint64
	}
	var stack []frame
	for root := range sn.Rules {
		if state[root] != 0 {
			continue
		}
		state[root] = 1
		stack = append(stack, frame{rule: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			rhs := sn.Rules[f.rule]
			for ; f.pos < len(rhs); f.pos++ {
				s := rhs[f.pos]
				add := uint64(1)
				if s.IsRule() {
					c := int(s.Rule)
					if c >= n {
						return sums, fmt.Errorf("sequitur: rule %d references out-of-range rule %d", f.rule, c)
					}
					if state[c] == 1 {
						return sums, fmt.Errorf("sequitur: rule %d participates in a cycle", c)
					}
					if state[c] == 0 {
						break // expand the child first, then resume here
					}
					add = sums[c]
				} else if weight != nil {
					add = weight(s.Value)
				}
				var carry uint64
				if f.sum, carry = bits.Add64(f.sum, add, 0); carry != 0 {
					return sums, fmt.Errorf("sequitur: rule %d: %w", f.rule, ErrExpansionOverflow)
				}
			}
			if f.pos < len(rhs) {
				c := int(rhs[f.pos].Rule)
				state[c] = 1
				stack = append(stack, frame{rule: c})
				continue
			}
			sums[f.rule] = f.sum
			state[f.rule] = 2
			stack = stack[:len(stack)-1]
		}
	}
	return sums, nil
}

// Dot renders the snapshot's rule DAG in Graphviz syntax. label renders
// terminal values; nil uses decimal.
func (sn *Snapshot) Dot(label func(uint64) string) string {
	if label == nil {
		label = func(v uint64) string { return fmt.Sprintf("%d", v) }
	}
	var sb bytes.Buffer
	sb.WriteString("digraph wpp_grammar {\n  rankdir=TB;\n")
	for i, rhs := range sn.Rules {
		var body bytes.Buffer
		for j, s := range rhs {
			if j > 0 {
				body.WriteByte(' ')
			}
			if s.IsRule() {
				fmt.Fprintf(&body, "R%d", s.Rule)
			} else {
				body.WriteString(label(s.Value))
			}
		}
		name := fmt.Sprintf("R%d", i)
		if i == 0 {
			name = "S"
		}
		fmt.Fprintf(&sb, "  r%d [shape=box label=%q];\n", i, fmt.Sprintf("%s -> %s", name, body.String()))
		seen := map[int32]bool{}
		for _, s := range rhs {
			if s.IsRule() && !seen[s.Rule] {
				seen[s.Rule] = true
				fmt.Fprintf(&sb, "  r%d -> r%d;\n", i, s.Rule)
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}
