package interp

// refMachine is the reference FuzzInterpParity and the fault-state tests
// hold Machine to: the interpreter as it was before frames moved onto a
// slab and code was pre-decoded, kept verbatim. Every call makes its own
// register file and argument slice, every instruction is one exec call
// with OpBin dispatched again inside evalBin, and the Ball–Larus edge
// plans are looked up per edge through [func][block][succ] slices.

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/bl"
	"repro/internal/cfg"
	"repro/internal/trace"
	"repro/internal/wl"
	"repro/internal/wlc"
)

type refMachine struct {
	prog  *wlc.Program
	cfg   Config
	plans [][][]edgePlan // [func][block][succIdx]
	stats Stats
	batch trace.BatchSink
	ebuf  []trace.Event
}

func newRef(p *wlc.Program, config Config) (*refMachine, error) {
	if config.Stdout == nil {
		config.Stdout = io.Discard
	}
	if config.Mode != NoTrace && config.Sink == nil {
		return nil, fmt.Errorf("interp: trace mode %d requires a Sink", config.Mode)
	}
	m := &refMachine{prog: p, cfg: config}
	if bs, ok := config.Sink.(trace.BatchSink); ok && config.Mode != NoTrace {
		m.batch = bs
		m.ebuf = make([]trace.Event, 0, emitBatchSize)
	}
	m.stats.FuncInstrs = make([]uint64, len(p.Funcs))
	if config.Mode == PathTrace {
		if len(p.Funcs) > trace.MaxFuncs {
			return nil, fmt.Errorf("interp: %d functions exceed trace limit", len(p.Funcs))
		}
		m.plans = make([][][]edgePlan, len(p.Funcs))
		for i, f := range p.Funcs {
			num, err := bl.Number(f.Graph)
			if err != nil {
				return nil, fmt.Errorf("interp: %w", err)
			}
			if num.NumPaths >= 1<<trace.PathBits {
				return nil, fmt.Errorf("interp: %s: %d paths exceed event encoding", f.Name, num.NumPaths)
			}
			plan := make([][]edgePlan, f.Graph.NumBlocks())
			for _, b := range f.Graph.Blocks() {
				eps := make([]edgePlan, len(b.Succs))
				for si, succ := range b.Succs {
					if num.IsBack[b.ID][si] {
						instr := num.BackEdge[cfg.Edge{From: b.ID, To: succ}]
						eps[si] = edgePlan{back: true, emitAdd: instr.EmitAdd, reset: instr.Reset}
					} else {
						eps[si] = edgePlan{add: num.EdgeVal[b.ID][si]}
					}
				}
				plan[b.ID] = eps
			}
			m.plans[i] = plan
		}
	}
	return m, nil
}

func (m *refMachine) Run(entry string, args ...int64) (int64, error) {
	f, ok := m.prog.ByName[entry]
	if !ok {
		return 0, fmt.Errorf("interp: no function %s", entry)
	}
	if len(args) != f.Params {
		return 0, fmt.Errorf("interp: %s takes %d argument(s), got %d", entry, f.Params, len(args))
	}
	vals := make([]Value, len(args))
	for i, a := range args {
		vals[i] = Value{I: a}
	}
	res, err := m.call(f, vals)
	// Flush on the error path too: a partial trace up to the fault is
	// still a valid trace, and Stats.Events must agree with what the
	// sink saw.
	m.flushEvents()
	if err != nil {
		return 0, err
	}
	return res.I, nil
}

func (m *refMachine) emit(e trace.Event) {
	if m.batch == nil {
		m.cfg.Sink.Add(e)
		return
	}
	m.ebuf = append(m.ebuf, e)
	if len(m.ebuf) == cap(m.ebuf) {
		m.batch.AddBatch(m.ebuf)
		m.ebuf = m.ebuf[:0]
	}
}

// flushEvents drains the emission buffer; a no-op for plain sinks.
func (m *refMachine) flushEvents() {
	if m.batch == nil || len(m.ebuf) == 0 {
		return
	}
	m.batch.AddBatch(m.ebuf)
	m.ebuf = m.ebuf[:0]
}

func (m *refMachine) rtErr(f *wlc.Func, pos wl.Pos, format string, args ...any) error {
	return &RuntimeError{Func: f.Name, Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (m *refMachine) call(f *wlc.Func, args []Value) (Value, error) {
	m.stats.Calls++
	regs := make([]Value, f.NumRegs)
	copy(regs[1:], args)

	g := f.Graph
	cur := g.Entry
	pathReg := uint64(0)
	for {
		blk := g.Block(cur)
		m.stats.Instructions += uint64(blk.Weight)
		m.stats.FuncInstrs[f.ID] += uint64(blk.Weight)
		m.stats.BlocksExecuted++
		if m.cfg.MaxInstrs > 0 && m.stats.Instructions > m.cfg.MaxInstrs {
			return Value{}, fmt.Errorf("interp: %s: %w", f.Name, ErrInstrLimit)
		}
		if m.cfg.Mode == BlockTrace {
			m.stats.Events++
			m.emit(trace.MakeEvent(uint32(f.ID), uint64(cur)))
		}
		for i := range f.Code[cur] {
			in := &f.Code[cur][i]
			if err := m.exec(f, regs, in); err != nil {
				return Value{}, err
			}
		}
		t := f.Terms[cur]
		var si int
		switch t.Kind {
		case wlc.TermJump:
			si = 0
		case wlc.TermBranch:
			if truthy(&regs[t.Cond]) {
				si = 0
			} else {
				si = 1
			}
		case wlc.TermExit:
			if m.cfg.Mode == PathTrace {
				m.stats.Events++
				m.emit(trace.MakeEvent(uint32(f.ID), pathReg))
			}
			return regs[0], nil
		}
		next := blk.Succs[si]
		if m.cfg.EdgeSink != nil {
			m.cfg.EdgeSink(uint32(f.ID), cur, si)
		}
		if m.cfg.Mode == PathTrace {
			ep := m.plans[f.ID][cur][si]
			if ep.back {
				m.stats.Events++
				m.emit(trace.MakeEvent(uint32(f.ID), pathReg+ep.emitAdd))
				pathReg = ep.reset
			} else {
				pathReg += ep.add
			}
		}
		cur = next
	}
}

func (m *refMachine) exec(f *wlc.Func, regs []Value, in *wlc.Instr) error {
	switch in.Op {
	case wlc.OpConst:
		regs[in.Dst] = Value{I: in.Imm}
	case wlc.OpMov:
		regs[in.Dst] = regs[in.A]
	case wlc.OpBin:
		a, b := regs[in.A], regs[in.B]
		if a.Arr != nil || b.Arr != nil {
			return m.rtErr(f, in.Pos, "arithmetic on array value")
		}
		v, err := evalBin(in.BinOp, a.I, b.I)
		if err != nil {
			return m.rtErr(f, in.Pos, "%v", err)
		}
		regs[in.Dst] = Value{I: v}
	case wlc.OpNot:
		if truthy(&regs[in.A]) {
			regs[in.Dst] = Value{I: 0}
		} else {
			regs[in.Dst] = Value{I: 1}
		}
	case wlc.OpNeg:
		a := regs[in.A]
		if a.Arr != nil {
			return m.rtErr(f, in.Pos, "negation of array value")
		}
		regs[in.Dst] = Value{I: -a.I}
	case wlc.OpNewArr:
		n := regs[in.A]
		if n.Arr != nil {
			return m.rtErr(f, in.Pos, "array length is an array")
		}
		if n.I < 0 || n.I > 1<<30 {
			return m.rtErr(f, in.Pos, "array length %d out of range", n.I)
		}
		regs[in.Dst] = Value{Arr: make([]int64, n.I)}
	case wlc.OpLen:
		a := regs[in.A]
		if a.Arr == nil {
			return m.rtErr(f, in.Pos, "len of non-array")
		}
		regs[in.Dst] = Value{I: int64(len(a.Arr))}
	case wlc.OpLoad:
		a, idx := regs[in.A], regs[in.B]
		if a.Arr == nil {
			return m.rtErr(f, in.Pos, "indexing non-array")
		}
		if idx.Arr != nil || idx.I < 0 || idx.I >= int64(len(a.Arr)) {
			return m.rtErr(f, in.Pos, "index %d out of range [0,%d)", idx.I, len(a.Arr))
		}
		regs[in.Dst] = Value{I: a.Arr[idx.I]}
	case wlc.OpStore:
		a, idx, v := regs[in.A], regs[in.B], regs[in.Dst]
		if a.Arr == nil {
			return m.rtErr(f, in.Pos, "indexing non-array")
		}
		if idx.Arr != nil || idx.I < 0 || idx.I >= int64(len(a.Arr)) {
			return m.rtErr(f, in.Pos, "index %d out of range [0,%d)", idx.I, len(a.Arr))
		}
		if v.Arr != nil {
			return m.rtErr(f, in.Pos, "storing array into array element")
		}
		a.Arr[idx.I] = v.I
	case wlc.OpCall:
		callee := m.prog.Funcs[in.Fn]
		args := make([]Value, len(in.Args))
		for i, r := range in.Args {
			args[i] = regs[r]
		}
		res, err := m.call(callee, args)
		if err != nil {
			return err
		}
		regs[in.Dst] = res
	case wlc.OpPrint:
		for i, r := range in.Args {
			if i > 0 {
				fmt.Fprint(m.cfg.Stdout, " ")
			}
			v := regs[r]
			if v.Arr != nil {
				fmt.Fprintf(m.cfg.Stdout, "%v", v.Arr)
			} else {
				fmt.Fprintf(m.cfg.Stdout, "%d", v.I)
			}
		}
		fmt.Fprintln(m.cfg.Stdout)
	default:
		return m.rtErr(f, in.Pos, "unknown opcode %d", in.Op)
	}
	return nil
}

func evalBin(op wl.Kind, a, b int64) (int64, error) {
	switch op {
	case wl.Add:
		return a + b, nil
	case wl.Sub:
		return a - b, nil
	case wl.Mul:
		return a * b, nil
	case wl.Div:
		if b == 0 {
			return 0, errors.New("division by zero")
		}
		return a / b, nil
	case wl.Rem:
		if b == 0 {
			return 0, errors.New("remainder by zero")
		}
		return a % b, nil
	case wl.Lt:
		return b2i(a < b), nil
	case wl.Le:
		return b2i(a <= b), nil
	case wl.Gt:
		return b2i(a > b), nil
	case wl.Ge:
		return b2i(a >= b), nil
	case wl.Eq:
		return b2i(a == b), nil
	case wl.Ne:
		return b2i(a != b), nil
	case wl.And:
		return a & b, nil
	case wl.Or:
		return a | b, nil
	case wl.Xor:
		return a ^ b, nil
	case wl.Shl:
		return a << (uint64(b) & 63), nil
	case wl.Shr:
		return int64(uint64(a) >> (uint64(b) & 63)), nil
	}
	return 0, fmt.Errorf("unknown operator %s", op)
}
