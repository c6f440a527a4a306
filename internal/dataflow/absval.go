package dataflow

import (
	"fmt"
	"math"

	"repro/internal/wl"
	"repro/internal/wlc"
)

// AbsVal is the abstract value of one WL register: an element of the
// lattice
//
//	      Any
//	     /   \
//	[lo,hi]  Arr
//	     \   /
//	      Bot
//
// where [lo,hi] is a signed-int64 interval (constants are degenerate
// intervals). Arr means "definitely an array" — arrays carry no further
// abstraction, but they are always truthy, which is what branch
// refinement needs. Any means "scalar or array, unknown". Bot is the
// value of an unreached definition; an instruction whose result is Bot
// makes the whole environment infeasible.
//
// Soundness contract: for every concrete execution reaching a program
// point, the concrete register value is described by the abstract one
// (a scalar n by any interval containing n or by Any; an array by Arr
// or Any). Transfer functions may assume the instruction does not fault
// — a faulting execution never completes its acyclic path, so it is
// outside the concretization the feasible-path analysis ranges over.
type AbsVal struct {
	kind   uint8
	lo, hi int64
}

// Lattice element kinds.
const (
	kBot uint8 = iota
	kInt
	kArr
	kAny
)

// Bot is the unreached value.
func Bot() AbsVal { return AbsVal{kind: kBot} }

// ConstVal abstracts the single scalar c.
func ConstVal(c int64) AbsVal { return AbsVal{kind: kInt, lo: c, hi: c} }

// Interval abstracts any scalar in [lo, hi].
func Interval(lo, hi int64) AbsVal {
	if lo > hi {
		return Bot()
	}
	return AbsVal{kind: kInt, lo: lo, hi: hi}
}

// AnyScalar is the full scalar interval.
func AnyScalar() AbsVal { return AbsVal{kind: kInt, lo: math.MinInt64, hi: math.MaxInt64} }

// ArrVal abstracts every array value.
func ArrVal() AbsVal { return AbsVal{kind: kArr} }

// Any is the top element: scalar or array.
func Any() AbsVal { return AbsVal{kind: kAny} }

// IsBot reports whether v is the unreached bottom.
func (v AbsVal) IsBot() bool { return v.kind == kBot }

// IsConst reports whether v is a single scalar, and which.
func (v AbsVal) IsConst() (int64, bool) {
	if v.kind == kInt && v.lo == v.hi {
		return v.lo, true
	}
	return 0, false
}

// Bounds reports the interval of a scalar-valued v (ok=false for Bot,
// Arr, and Any).
func (v AbsVal) Bounds() (lo, hi int64, ok bool) {
	if v.kind != kInt {
		return 0, 0, false
	}
	return v.lo, v.hi, true
}

func (v AbsVal) String() string {
	switch v.kind {
	case kBot:
		return "⊥"
	case kArr:
		return "arr"
	case kAny:
		return "⊤"
	}
	if v.lo == v.hi {
		return fmt.Sprint(v.lo)
	}
	l, h := "-inf", "+inf"
	if v.lo != math.MinInt64 {
		l = fmt.Sprint(v.lo)
	}
	if v.hi != math.MaxInt64 {
		h = fmt.Sprint(v.hi)
	}
	return fmt.Sprintf("[%s,%s]", l, h)
}

// Truthiness classification. WL's truthy is "array, or scalar != 0".

// mayBeTruthy reports whether some concretization of v is truthy.
func (v AbsVal) mayBeTruthy() bool {
	switch v.kind {
	case kBot:
		return false
	case kInt:
		return v.lo != 0 || v.hi != 0
	}
	return true // arrays are truthy; Any may be either
}

// mayBeFalsy reports whether some concretization of v is the scalar 0.
func (v AbsVal) mayBeFalsy() bool {
	switch v.kind {
	case kBot, kArr:
		return false
	case kInt:
		return v.lo <= 0 && 0 <= v.hi
	}
	return true
}

// join returns the least upper bound of a and b.
func join(a, b AbsVal) AbsVal {
	switch {
	case a.kind == kBot:
		return b
	case b.kind == kBot:
		return a
	case a.kind == kAny || b.kind == kAny:
		return Any()
	case a.kind == kArr && b.kind == kArr:
		return ArrVal()
	case a.kind == kArr || b.kind == kArr:
		return Any()
	}
	lo, hi := a.lo, a.hi
	if b.lo < lo {
		lo = b.lo
	}
	if b.hi > hi {
		hi = b.hi
	}
	return AbsVal{kind: kInt, lo: lo, hi: hi}
}

// Widening landing points: when a join keeps expanding an interval the
// growing bound jumps outward to the next point, so ascending chains
// stay short (the fixpoint solver's convergence depends on it). Chosen
// to preserve the relations WL programs actually branch on: small
// counters, byte and 31-bit masks.
var (
	widenHiSteps = []int64{0, 1, 16, 64, 256, 65536, 1 << 31, math.MaxInt64}
	widenLoSteps = []int64{0, -1, -16, -64, -256, -65536, -(1 << 31), math.MinInt64}
)

// widen returns prev ⊔ next with bound acceleration: any bound that
// strictly grew jumps outward to the next widening step.
func widen(prev, next AbsVal) AbsVal {
	j := join(prev, next)
	if j.kind != kInt || prev.kind != kInt {
		return j
	}
	if j.lo < prev.lo {
		lo := int64(math.MinInt64)
		for _, s := range widenLoSteps {
			if s <= j.lo {
				lo = s
				break
			}
		}
		j.lo = lo
	}
	if j.hi > prev.hi {
		hi := int64(math.MaxInt64)
		for _, s := range widenHiSteps {
			if s >= j.hi {
				hi = s
				break
			}
		}
		j.hi = hi
	}
	return j
}

// meetInterval intersects v with [lo, hi], treating Any as the full
// scalar interval (a value that just compared as a scalar cannot be an
// array). Returns Bot on empty intersection.
func meetInterval(v AbsVal, lo, hi int64) AbsVal {
	switch v.kind {
	case kBot:
		return Bot()
	case kArr:
		return Bot() // arrays never satisfy a scalar constraint
	case kAny:
		return Interval(lo, hi)
	}
	nlo, nhi := v.lo, v.hi
	if lo > nlo {
		nlo = lo
	}
	if hi < nhi {
		nhi = hi
	}
	return Interval(nlo, nhi)
}

// Interval arithmetic helpers: every operation falls back to the full
// scalar range when it cannot bound the result without risking signed
// overflow, matching the interpreter's wrapping semantics.

func addOK(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func subOK(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

func mulOK(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || (a == -1 && b == math.MinInt64) || (b == -1 && a == math.MinInt64) {
		return 0, false
	}
	return p, true
}

// bitLen64 is the number of bits needed for nonnegative n.
func bitLen64(n int64) uint {
	var k uint
	for n > 0 {
		n >>= 1
		k++
	}
	return k
}

// binOp abstracts OpBin: the result of a BinOp over scalar operands.
// Operands of kind Arr or Any are treated as the full scalar interval —
// if the concrete operation ran without faulting, they were scalars.
// Returns Bot only when the operation must fault (constant division by
// zero), which makes the continuation infeasible.
func binOp(op wl.Kind, a, b AbsVal) AbsVal {
	if a.kind == kBot || b.kind == kBot {
		return Bot()
	}
	if a.kind != kInt {
		a = AnyScalar()
	}
	if b.kind != kInt {
		b = AnyScalar()
	}
	// Exact constant evaluation shares the compiler/interpreter
	// semantics (wrapping arithmetic, masked shifts, 0/1 comparisons).
	if ca, ok := a.IsConst(); ok {
		if cb, ok := b.IsConst(); ok {
			v, err := wlc.FoldConst(op, ca, cb)
			if err != nil {
				return Bot() // division by zero: the path faults here
			}
			return ConstVal(v)
		}
	}
	switch op {
	case wl.Add:
		lo, ok1 := addOK(a.lo, b.lo)
		hi, ok2 := addOK(a.hi, b.hi)
		if ok1 && ok2 {
			return Interval(lo, hi)
		}
	case wl.Sub:
		lo, ok1 := subOK(a.lo, b.hi)
		hi, ok2 := subOK(a.hi, b.lo)
		if ok1 && ok2 {
			return Interval(lo, hi)
		}
	case wl.Mul:
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, x := range []int64{a.lo, a.hi} {
			for _, y := range []int64{b.lo, b.hi} {
				p, ok := mulOK(x, y)
				if !ok {
					return AnyScalar()
				}
				if p < lo {
					lo = p
				}
				if p > hi {
					hi = p
				}
			}
		}
		return Interval(lo, hi)
	case wl.Div:
		if c, ok := b.IsConst(); ok && c != 0 && c != -1 {
			// Truncated division by a constant is monotone (c > 0) or
			// anti-monotone (c < -1); c == -1 can overflow MinInt64.
			x, y := a.lo/c, a.hi/c
			if x > y {
				x, y = y, x
			}
			return Interval(x, y)
		}
	case wl.Rem:
		if c, ok := b.IsConst(); ok && c != 0 && c != math.MinInt64 {
			m := c
			if m < 0 {
				m = -m
			}
			if a.lo >= 0 {
				hi := m - 1
				if a.hi < hi {
					hi = a.hi
				}
				return Interval(0, hi)
			}
			return Interval(-(m - 1), m-1)
		}
		if a.lo >= 0 && b.lo >= 1 {
			hi := b.hi - 1
			if a.hi < hi {
				hi = a.hi
			}
			return Interval(0, hi)
		}
	case wl.Lt:
		return cmpInterval(a.hi < b.lo, a.lo >= b.hi)
	case wl.Le:
		return cmpInterval(a.hi <= b.lo, a.lo > b.hi)
	case wl.Gt:
		return cmpInterval(a.lo > b.hi, a.hi <= b.lo)
	case wl.Ge:
		return cmpInterval(a.lo >= b.hi, a.hi < b.lo)
	case wl.Eq:
		if a.lo == a.hi && b.lo == b.hi && a.lo == b.lo {
			return ConstVal(1)
		}
		return cmpInterval(false, a.hi < b.lo || b.hi < a.lo)
	case wl.Ne:
		if a.lo == a.hi && b.lo == b.hi && a.lo == b.lo {
			return ConstVal(0)
		}
		return cmpInterval(a.hi < b.lo || b.hi < a.lo, false)
	case wl.And:
		if a.lo >= 0 && b.lo >= 0 {
			hi := a.hi
			if b.hi < hi {
				hi = b.hi
			}
			return Interval(0, hi)
		}
	case wl.Or, wl.Xor:
		if a.lo >= 0 && b.lo >= 0 {
			k := bitLen64(a.hi)
			if k2 := bitLen64(b.hi); k2 > k {
				k = k2
			}
			if k < 63 {
				return Interval(0, int64(1)<<k-1)
			}
		}
	case wl.Shl:
		if c, ok := b.IsConst(); ok && a.lo >= 0 {
			s := uint64(c) & 63
			lo, hi := a.lo<<s, a.hi<<s
			if s < 63 && lo>>s == a.lo && hi>>s == a.hi && hi >= lo {
				return Interval(lo, hi)
			}
		}
	case wl.Shr:
		if c, ok := b.IsConst(); ok && a.lo >= 0 {
			s := uint64(c) & 63
			return Interval(a.lo>>s, a.hi>>s)
		}
	}
	return AnyScalar()
}

// cmpInterval encodes a three-valued comparison outcome as an abstract
// 0/1 value.
func cmpInterval(alwaysTrue, alwaysFalse bool) AbsVal {
	switch {
	case alwaysTrue:
		return ConstVal(1)
	case alwaysFalse:
		return ConstVal(0)
	}
	return Interval(0, 1)
}

// notOp abstracts OpNot (!v under WL truthiness).
func notOp(v AbsVal) AbsVal {
	if v.kind == kBot {
		return Bot()
	}
	switch {
	case !v.mayBeFalsy():
		return ConstVal(0)
	case !v.mayBeTruthy():
		return ConstVal(1)
	}
	return Interval(0, 1)
}

// negOp abstracts OpNeg.
func negOp(v AbsVal) AbsVal {
	if v.kind == kBot {
		return Bot()
	}
	if v.kind != kInt {
		return AnyScalar()
	}
	if v.lo == math.MinInt64 {
		return AnyScalar() // -MinInt64 wraps
	}
	return Interval(-v.hi, -v.lo)
}

// constrainCmp refines the operand intervals of a comparison a OP b
// known to have held. Returned values are the refined operands; ok is
// false when the constraint is unsatisfiable, i.e. the branch edge is
// infeasible.
func constrainCmp(op wl.Kind, a, b AbsVal) (ra, rb AbsVal, ok bool) {
	if a.kind == kBot || b.kind == kBot {
		return a, b, false
	}
	// A comparison that executed had scalar operands.
	ia, ib := a, b
	if ia.kind != kInt {
		ia = AnyScalar()
	}
	if ib.kind != kInt {
		ib = AnyScalar()
	}
	switch op {
	case wl.Lt: // a < b
		if ib.hi == math.MinInt64 {
			return a, b, false
		}
		ra = meetInterval(ia, math.MinInt64, ib.hi-1)
		if ia.lo == math.MaxInt64 {
			return a, b, false
		}
		rb = meetInterval(ib, ia.lo+1, math.MaxInt64)
	case wl.Le: // a <= b
		ra = meetInterval(ia, math.MinInt64, ib.hi)
		rb = meetInterval(ib, ia.lo, math.MaxInt64)
	case wl.Gt: // a > b
		if ib.lo == math.MaxInt64 {
			return a, b, false
		}
		ra = meetInterval(ia, ib.lo+1, math.MaxInt64)
		if ia.hi == math.MinInt64 {
			return a, b, false
		}
		rb = meetInterval(ib, math.MinInt64, ia.hi-1)
	case wl.Ge: // a >= b
		ra = meetInterval(ia, ib.lo, math.MaxInt64)
		rb = meetInterval(ib, math.MinInt64, ia.hi)
	case wl.Eq: // a == b
		ra = meetInterval(ia, ib.lo, ib.hi)
		rb = meetInterval(ib, ia.lo, ia.hi)
	case wl.Ne: // a != b
		ra, rb = ia, ib
		if ca, isA := ia.IsConst(); isA {
			if cb, isB := ib.IsConst(); isB && ca == cb {
				return a, b, false
			}
		}
		// Trim a constant operand off the other's endpoint.
		if c, isC := ib.IsConst(); isC && ia.lo == c && ia.lo < ia.hi {
			ra = Interval(ia.lo+1, ia.hi)
		} else if isC && ia.hi == c && ia.lo < ia.hi {
			ra = Interval(ia.lo, ia.hi-1)
		}
		if c, isC := ia.IsConst(); isC && ib.lo == c && ib.lo < ib.hi {
			rb = Interval(ib.lo+1, ib.hi)
		} else if isC && ib.hi == c && ib.lo < ib.hi {
			rb = Interval(ib.lo, ib.hi-1)
		}
	default:
		return a, b, true
	}
	if ra.IsBot() || rb.IsBot() {
		return a, b, false
	}
	return ra, rb, true
}
