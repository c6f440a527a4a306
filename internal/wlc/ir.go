// Package wlc compiles WL source (package wl) to a register-machine IR
// organized as per-function control-flow graphs (package cfg). This is the
// point where the whole-program-path instrumentation hooks in: the CFGs
// produced here are what bl.Number numbers and what the interpreter
// executes with path tracing.
package wlc

import (
	"fmt"
	"strings"

	"repro/internal/cfg"
	"repro/internal/wl"
)

// Op is an IR opcode.
type Op uint8

// IR opcodes. Register operands are indices into the frame's register
// file; register 0 is the return-value slot.
const (
	OpConst  Op = iota // Dst = Imm
	OpMov              // Dst = A
	OpBin              // Dst = A <BinOp> B
	OpNot              // Dst = !A (0 or 1)
	OpNeg              // Dst = -A
	OpNewArr           // Dst = array(A)
	OpLen              // Dst = len(A)
	OpLoad             // Dst = A[B]
	OpStore            // A[B] = Dst (Dst read, not written)
	OpCall             // Dst = Fn(Args...)
	OpPrint            // print Args...
)

var opNames = [...]string{
	OpConst: "const", OpMov: "mov", OpBin: "bin", OpNot: "not",
	OpNeg: "neg", OpNewArr: "newarr", OpLen: "len", OpLoad: "load",
	OpStore: "store", OpCall: "call", OpPrint: "print",
}

func (o Op) String() string { return opNames[o] }

// Instr is one IR instruction.
type Instr struct {
	Op    Op
	Dst   int32
	A, B  int32
	Imm   int64
	BinOp wl.Kind // for OpBin
	Fn    int32   // for OpCall
	Args  []int32 // for OpCall and OpPrint
	Pos   wl.Pos
}

func (in Instr) String() string {
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("r%d = %d", in.Dst, in.Imm)
	case OpMov:
		return fmt.Sprintf("r%d = r%d", in.Dst, in.A)
	case OpBin:
		return fmt.Sprintf("r%d = r%d %s r%d", in.Dst, in.A, in.BinOp, in.B)
	case OpNot:
		return fmt.Sprintf("r%d = !r%d", in.Dst, in.A)
	case OpNeg:
		return fmt.Sprintf("r%d = -r%d", in.Dst, in.A)
	case OpNewArr:
		return fmt.Sprintf("r%d = array(r%d)", in.Dst, in.A)
	case OpLen:
		return fmt.Sprintf("r%d = len(r%d)", in.Dst, in.A)
	case OpLoad:
		return fmt.Sprintf("r%d = r%d[r%d]", in.Dst, in.A, in.B)
	case OpStore:
		return fmt.Sprintf("r%d[r%d] = r%d", in.A, in.B, in.Dst)
	case OpCall:
		return fmt.Sprintf("r%d = call f%d%v", in.Dst, in.Fn, in.Args)
	case OpPrint:
		return fmt.Sprintf("print %v", in.Args)
	}
	return "?"
}

// TermKind classifies a block terminator.
type TermKind uint8

const (
	// TermJump transfers to the block's only successor.
	TermJump TermKind = iota
	// TermBranch tests Cond: successor 0 if nonzero, successor 1 if zero.
	TermBranch
	// TermExit ends the function (only on the exit block).
	TermExit
)

// Term is a block terminator.
type Term struct {
	Kind TermKind
	Cond int32 // register, for TermBranch
}

// Func is one compiled function.
type Func struct {
	ID      int32
	Name    string
	Params  int
	NumRegs int
	Graph   *cfg.Graph
	// Code[b] and Terms[b] are indexed by cfg.BlockID.
	Code  [][]Instr
	Terms []Term
}

// Program is a compiled WL program.
type Program struct {
	Funcs  []*Func
	ByName map[string]*Func
}

// FuncNames lists the function names, indexed by function ID: the name
// table a WPP records.
func (p *Program) FuncNames() []string {
	names := make([]string, len(p.Funcs))
	for i, f := range p.Funcs {
		names[i] = f.Name
	}
	return names
}

// Disassemble renders the program's IR for debugging.
func (p *Program) Disassemble() string {
	var sb strings.Builder
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "func %s (f%d) params=%d regs=%d\n", f.Name, f.ID, f.Params, f.NumRegs)
		for _, b := range f.Graph.Blocks() {
			fmt.Fprintf(&sb, "  b%d (%s):\n", b.ID, b.Name)
			for _, in := range f.Code[b.ID] {
				fmt.Fprintf(&sb, "    %s\n", in)
			}
			t := f.Terms[b.ID]
			switch t.Kind {
			case TermJump:
				fmt.Fprintf(&sb, "    jump b%d\n", b.Succs[0])
			case TermBranch:
				fmt.Fprintf(&sb, "    branch r%d ? b%d : b%d\n", t.Cond, b.Succs[0], b.Succs[1])
			case TermExit:
				fmt.Fprintf(&sb, "    exit\n")
			}
		}
	}
	return sb.String()
}
