package dataflow

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/wl"
	"repro/internal/wlc"
)

// Env is the abstract register file at one program point: Env[r] is the
// abstract value of register r. A nil Env is the environment of an
// unreached point (the solver's bottom).
type Env []AbsVal

func (e Env) clone() Env {
	if e == nil {
		return nil
	}
	c := make(Env, len(e))
	copy(c, e)
	return c
}

// entryEnv is the abstract register file on function entry: parameters
// (registers 1..Params) are unknown, every other register — including
// the return slot r0 — is the scalar zero the interpreter initializes
// frames with.
func entryEnv(f *wlc.Func) Env {
	e := make(Env, f.NumRegs)
	for i := range e {
		e[i] = ConstVal(0)
	}
	for i := 1; i <= f.Params; i++ {
		e[i] = Any()
	}
	return e
}

// unknownEnv abstracts a register file about which nothing is known; it
// is the sound starting point for acyclic paths beginning at a loop
// header.
func unknownEnv(f *wlc.Func) Env {
	e := make(Env, f.NumRegs)
	for i := range e {
		e[i] = Any()
	}
	return e
}

// applyInstr abstracts one IR instruction over e in place. It reports
// false when the instruction must fault (constant division by zero), in
// which case execution cannot continue past it.
func applyInstr(e Env, in *wlc.Instr) bool {
	switch in.Op {
	case wlc.OpConst:
		e[in.Dst] = ConstVal(in.Imm)
	case wlc.OpMov:
		e[in.Dst] = e[in.A]
	case wlc.OpBin:
		v := binOp(in.BinOp, e[in.A], e[in.B])
		// x OP x over a non-constant interval is still decided for
		// comparisons: both operands are the same concrete value.
		if in.A == in.B {
			switch in.BinOp {
			case wl.Lt, wl.Gt, wl.Ne:
				v = ConstVal(0)
			case wl.Le, wl.Ge, wl.Eq:
				v = ConstVal(1)
			case wl.Sub, wl.Xor:
				v = ConstVal(0)
			}
		}
		if v.IsBot() {
			return false
		}
		e[in.Dst] = v
	case wlc.OpNot:
		e[in.Dst] = notOp(e[in.A])
	case wlc.OpNeg:
		e[in.Dst] = negOp(e[in.A])
	case wlc.OpNewArr:
		e[in.Dst] = ArrVal()
	case wlc.OpLen:
		// Array lengths are bounded by the interpreter's 2^30 guard.
		e[in.Dst] = Interval(0, 1<<30)
	case wlc.OpLoad:
		// Array elements are scalars; nothing more is tracked.
		e[in.Dst] = AnyScalar()
	case wlc.OpStore, wlc.OpPrint:
		// No register is written.
	case wlc.OpCall:
		// Intraprocedural: a call may return anything.
		e[in.Dst] = Any()
	}
	return true
}

// transferBlock abstracts the whole body of block b over in (without
// mutating it), returning the environment at the block's end. A nil
// result means execution cannot fall through the block.
func transferBlock(f *wlc.Func, b cfg.BlockID, in Env) Env {
	if in == nil {
		return nil
	}
	e := in.clone()
	for i := range f.Code[b] {
		if !applyInstr(e, &f.Code[b][i]) {
			return nil
		}
	}
	return e
}

// writesReg reports whether the instruction writes register r.
func writesReg(in *wlc.Instr, r int32) bool {
	switch in.Op {
	case wlc.OpStore, wlc.OpPrint:
		return false
	}
	return in.Dst == r
}

// condDef finds the instruction in block b that produced the branch
// condition register cond as seen by the terminator: the last write to
// cond within the block. It returns its index, or -1 when the condition
// flows in from outside the block.
func condDef(f *wlc.Func, b cfg.BlockID, cond int32) int {
	code := f.Code[b]
	for i := len(code) - 1; i >= 0; i-- {
		if writesReg(&code[i], cond) {
			return i
		}
	}
	return -1
}

// refineEdge refines the block-exit environment out along the si-th
// successor edge of block b, applying the branch facts the edge
// implies: the condition register's truthiness, and — when the
// condition was computed by a comparison in the same block whose
// operands are unmodified since — the relation between the operands.
// It reports ok=false when the facts are contradictory, i.e. the edge
// is statically infeasible. out is not mutated.
func refineEdge(f *wlc.Func, b cfg.BlockID, si int, out Env) (Env, bool) {
	if out == nil {
		return nil, false
	}
	term := f.Terms[b]
	if term.Kind != wlc.TermBranch {
		return out, true
	}
	cond := term.Cond
	taken := si == 0 // successor 0 is the truthy edge
	cv := out[cond]
	var refined AbsVal
	if taken {
		if !cv.mayBeTruthy() {
			return nil, false
		}
		refined = cv
		// Trim a zero endpoint: truthy scalars exclude 0.
		if lo, hi, ok := cv.Bounds(); ok {
			if lo == 0 {
				refined = Interval(1, hi)
			} else if hi == 0 {
				refined = Interval(lo, -1)
			}
		}
	} else {
		if !cv.mayBeFalsy() {
			return nil, false
		}
		refined = ConstVal(0)
	}
	e := out.clone()
	e[cond] = refined

	// Branch-fact propagation to the comparison operands: only valid
	// when the defining comparison is in this block and neither operand
	// has been rewritten between the comparison and the branch.
	di := condDef(f, b, cond)
	if di < 0 {
		return e, true
	}
	def := &f.Code[b][di]
	if def.Op != wlc.OpBin || def.BinOp < wl.Lt || def.BinOp > wl.Ne {
		return e, true
	}
	if def.A == def.B {
		return e, true // same-register comparison: nothing to refine
	}
	code := f.Code[b]
	for i := di + 1; i < len(code); i++ {
		if writesReg(&code[i], def.A) || writesReg(&code[i], def.B) {
			return e, true
		}
	}
	op := def.BinOp
	if !taken {
		op = negateCmp(op)
	}
	ra, rb, ok := constrainCmp(op, e[def.A], e[def.B])
	if !ok {
		return nil, false
	}
	// The comparison's destination may alias an operand; the operand's
	// pre-branch value is then gone and must not be constrained.
	if def.A != def.Dst {
		e[def.A] = ra
	}
	if def.B != def.Dst {
		e[def.B] = rb
	}
	return e, true
}

// negateCmp returns the comparison that holds when op does not.
func negateCmp(op wl.Kind) wl.Kind {
	switch op {
	case wl.Lt:
		return wl.Ge
	case wl.Le:
		return wl.Gt
	case wl.Gt:
		return wl.Le
	case wl.Ge:
		return wl.Lt
	case wl.Eq:
		return wl.Ne
	case wl.Ne:
		return wl.Eq
	}
	return op
}

// ConstFacts is the fixpoint of constant/interval propagation over one
// function: abstract register files at every block boundary, plus the
// static feasibility of every CFG edge under those facts.
type ConstFacts struct {
	Func *wlc.Func
	// In[b] and Out[b] are the environments entering and leaving block
	// b; nil means the block (or its exit) is unreachable.
	In, Out []Env
	// EdgeFeasible[b][si] reports whether the si-th successor edge of b
	// can be taken under the computed facts. Edges out of unreachable
	// blocks are infeasible.
	EdgeFeasible [][]bool
}

// Reachable reports whether block b is reachable under the facts.
func (c *ConstFacts) Reachable(b cfg.BlockID) bool { return c.In[b] != nil }

// Consts runs forward constant/interval propagation with branch
// refinement over f to a fixpoint: the reachability-under-facts
// analysis. Joins widen growing bounds, so termination is guaranteed;
// the result over-approximates every concrete execution of f.
func Consts(f *wlc.Func) (*ConstFacts, error) {
	res, err := Solve(f.Graph, Problem[Env]{
		Bottom:   func() Env { return nil },
		Boundary: func() Env { return entryEnv(f) },
		IsBottom: func(e Env) bool { return e == nil },
		Join: func(dst, src Env) (Env, bool) {
			if src == nil {
				return dst, false
			}
			if dst == nil {
				return src.clone(), true
			}
			changed := false
			for i := range dst {
				w := widen(dst[i], src[i])
				if w != dst[i] {
					dst[i] = w
					changed = true
				}
			}
			return dst, changed
		},
		Transfer: func(b cfg.BlockID, in Env) Env {
			return transferBlock(f, b, in)
		},
		EdgeTransfer: func(b cfg.BlockID, si int, out Env) (Env, bool) {
			return refineEdge(f, b, si, out)
		},
		// Each register's widened bounds can step through the landing
		// points a few times; size the guard to the register file.
		MaxVisits: 64 + 16*f.NumRegs,
	})
	if err != nil {
		return nil, fmt.Errorf("dataflow: consts %s: %w", f.Name, err)
	}
	return &ConstFacts{Func: f, In: res.In, Out: res.Out, EdgeFeasible: res.EdgeFeasible}, nil
}
