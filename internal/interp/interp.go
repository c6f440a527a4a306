// Package interp executes compiled WL programs (package wlc), optionally
// under Ball–Larus path instrumentation. It plays the role of the paper's
// instrumented SPARC binaries: the same execution can run untraced (the
// baseline), with block tracing (the naive alphabet the paper improves
// on), or with path tracing (the whole-program-path event stream).
package interp

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/bl"
	"repro/internal/cfg"
	"repro/internal/trace"
	"repro/internal/wl"
	"repro/internal/wlc"
)

// Mode selects what an execution records.
type Mode int

const (
	// NoTrace runs the program with no instrumentation.
	NoTrace Mode = iota
	// BlockTrace emits one event per basic block executed, encoded as
	// (funcID, blockID). It is the naive control-flow trace baseline.
	BlockTrace
	// PathTrace emits one event per completed Ball–Larus acyclic path,
	// encoded as (funcID, pathID). This is the WPP event stream.
	PathTrace
)

// Config controls an execution.
type Config struct {
	Mode Mode
	// Sink receives every trace event; the interpreter is the push side
	// of the trace.Source/trace.Sink pipeline, so any WPP builder (or
	// trace.SinkFunc closure) plugs in directly. Required for
	// BlockTrace/PathTrace.
	Sink trace.Sink
	// EdgeSink, when set, observes every CFG edge taken: function ID,
	// source block, and the successor index within the source block. It
	// feeds edge-frequency profiles (e.g. for profile-guided
	// instrumentation placement) and works in any Mode.
	EdgeSink func(fn uint32, from cfg.BlockID, succIdx int)
	// Stdout receives print output; io.Discard if nil.
	Stdout io.Writer
	// MaxInstrs aborts the run after this many IR instructions; 0 means
	// no limit.
	MaxInstrs uint64
}

// Stats summarizes an execution.
type Stats struct {
	// Instructions is the number of IR instructions executed, counting
	// one per block entry for the terminator.
	Instructions uint64
	// Events is the number of trace events emitted.
	Events uint64
	// Calls is the number of function calls executed.
	Calls uint64
	// BlocksExecuted is the number of basic-block entries.
	BlocksExecuted uint64
	// FuncInstrs attributes Instructions to functions, indexed by
	// function ID. It is the ground truth the function profile that
	// hotpath.FuncProfile recovers from any WPP artifact, monolithic,
	// chunked or a lazy view, is validated against.
	FuncInstrs []uint64
}

// RuntimeError is an execution-time failure with source context.
type RuntimeError struct {
	Func string
	Pos  wl.Pos
	Msg  string
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("runtime error in %s at %s: %s", e.Func, e.Pos, e.Msg)
}

// ErrInstrLimit is wrapped by the error returned when MaxInstrs is hit.
var ErrInstrLimit = errors.New("instruction limit exceeded")

// Value is a WL runtime value: a scalar or an array. Arr non-nil means
// array.
type Value struct {
	I   int64
	Arr []int64
}

// edgePlan is the per-successor instrumentation derived from bl.Numbering.
type edgePlan struct {
	add     uint64
	back    bool
	emitAdd uint64
	reset   uint64
}

// opcode is a pre-decoded instruction kind: wlc's opcodes with OpBin
// split into one opcode per operator. Every opcode from opAdd on is a
// binary operator on two scalars.
type opcode uint8

const (
	opConst opcode = iota
	opMov
	opNot
	opNeg
	opNewArr
	opLen
	opLoad
	opStore
	opCall
	opPrint
	opBad // an opcode wlc does not define; faults when executed
	opAdd
	opSub
	opMul
	opDiv
	opRem
	opLt
	opLe
	opGt
	opGe
	opEq
	opNe
	opAnd
	opOr
	opXor
	opShl
	opShr
	opBadBin // an operator WL does not define; faults when executed
)

var plainOpcodes = map[wlc.Op]opcode{
	wlc.OpConst: opConst, wlc.OpMov: opMov, wlc.OpNot: opNot, wlc.OpNeg: opNeg,
	wlc.OpNewArr: opNewArr, wlc.OpLen: opLen, wlc.OpLoad: opLoad,
	wlc.OpStore: opStore, wlc.OpCall: opCall, wlc.OpPrint: opPrint,
}

var binOpcodes = map[wl.Kind]opcode{
	wl.Add: opAdd, wl.Sub: opSub, wl.Mul: opMul, wl.Div: opDiv, wl.Rem: opRem,
	wl.Lt: opLt, wl.Le: opLe, wl.Gt: opGt, wl.Ge: opGe, wl.Eq: opEq, wl.Ne: opNe,
	wl.And: opAnd, wl.Or: opOr, wl.Xor: opXor, wl.Shl: opShl, wl.Shr: opShr,
}

// op is one pre-decoded instruction. src keeps what only calls, prints
// and faults read: the position, the argument registers, the original
// opcode or operator.
type op struct {
	code      opcode
	dst, a, b int32
	imm       int64 // opConst's value; opCall's callee index
	src       *wlc.Instr
}

// block is one pre-decoded basic block: its slice of the function's op
// stream, its terminator with resolved successor indexes, and the
// Ball–Larus plan of each outgoing edge (PathTrace machines only).
type block struct {
	code   []op
	id     cfg.BlockID
	weight uint64
	term   wlc.TermKind
	cond   int32
	succ   [2]int32
	plan   [2]edgePlan
}

// function is one pre-decoded function.
type function struct {
	name   string
	id     uint32
	nregs  int
	entry  int32
	blocks []block
}

// decode flattens f into one op stream and a block table. num is nil
// unless the machine path-traces.
func decode(f *wlc.Func, num *bl.Numbering) function {
	g := f.Graph
	n := 0
	for _, code := range f.Code {
		n += len(code)
	}
	stream := make([]op, 0, n)
	fn := function{name: f.Name, id: uint32(f.ID), nregs: f.NumRegs, entry: int32(g.Entry), blocks: make([]block, g.NumBlocks())}
	for _, blk := range g.Blocks() {
		start := len(stream)
		for i := range f.Code[blk.ID] {
			in := &f.Code[blk.ID][i]
			o := op{dst: in.Dst, a: in.A, b: in.B, imm: in.Imm, src: in}
			var ok bool
			if in.Op == wlc.OpBin {
				if o.code, ok = binOpcodes[in.BinOp]; !ok {
					o.code = opBadBin
				}
			} else if o.code, ok = plainOpcodes[in.Op]; !ok {
				o.code = opBad
			}
			if in.Op == wlc.OpCall {
				o.imm = int64(in.Fn)
			}
			stream = append(stream, o)
		}
		t := f.Terms[blk.ID]
		b := block{code: stream[start:], id: blk.ID, weight: uint64(blk.Weight), term: t.Kind, cond: t.Cond}
		for si, succ := range blk.Succs[:min(len(blk.Succs), 2)] {
			b.succ[si] = int32(succ)
			if num == nil {
				continue
			}
			if num.IsBack[blk.ID][si] {
				instr := num.BackEdge[cfg.Edge{From: blk.ID, To: succ}]
				b.plan[si] = edgePlan{back: true, emitAdd: instr.EmitAdd, reset: instr.Reset}
			} else {
				b.plan[si] = edgePlan{add: num.EdgeVal[blk.ID][si]}
			}
		}
		fn.blocks[blk.ID] = b
	}
	return fn
}

// Machine executes a compiled program. A Machine is not safe for
// concurrent use, and its Sink and EdgeSink must not call its Run.
//
// Calls run on one frame slab: a callee's registers are the window
// slab[top:top+nregs] just above its caller's, so a call allocates
// nothing once the slab has grown to the deepest call chain. Every
// window is zeroed on entry, which the feasible-path analysis relies on
// (registers start at zero), and again on return, so the slab above the
// active frames keeps no array alive.
type Machine struct {
	prog  *wlc.Program
	cfg   Config
	funcs []function
	nums  []*bl.Numbering
	stats Stats
	slab  []Value
	// batch is non-nil when the configured Sink also implements
	// trace.BatchSink: events are then buffered in ebuf and flushed a
	// slice at a time, letting batch-capable consumers (the WPP
	// builders) run their fast path. With a plain Sink both stay nil and
	// every event is delivered as it happens.
	batch trace.BatchSink
	ebuf  []trace.Event
}

// emitBatchSize is the emission buffer capacity: large enough to
// amortize the per-flush costs, small enough to stay cache-resident.
const emitBatchSize = 4096

// Numberings computes the Ball–Larus numbering of every function of p,
// indexed by function ID. It fails if the program has more functions
// than an event can name, or if any function is irreducible or has more
// acyclic paths than an event can encode.
func Numberings(p *wlc.Program) ([]*bl.Numbering, error) {
	if len(p.Funcs) > trace.MaxFuncs {
		return nil, fmt.Errorf("interp: %d functions exceed trace limit", len(p.Funcs))
	}
	nums := make([]*bl.Numbering, len(p.Funcs))
	for i, f := range p.Funcs {
		num, err := bl.Number(f.Graph)
		if err != nil {
			return nil, fmt.Errorf("interp: %w", err)
		}
		if num.NumPaths >= 1<<trace.PathBits {
			return nil, fmt.Errorf("interp: %s: %d paths exceed event encoding", f.Name, num.NumPaths)
		}
		nums[i] = num
	}
	return nums, nil
}

// New prepares a machine, pre-decoding every function. For PathTrace
// mode it computes the Ball–Larus numbering of every function
// (Numberings), which fails if any function is irreducible or has too
// many acyclic paths.
func New(p *wlc.Program, config Config) (*Machine, error) {
	if config.Stdout == nil {
		config.Stdout = io.Discard
	}
	if config.Mode != NoTrace && config.Sink == nil {
		return nil, fmt.Errorf("interp: trace mode %d requires a Sink", config.Mode)
	}
	m := &Machine{prog: p, cfg: config}
	if bs, ok := config.Sink.(trace.BatchSink); ok && config.Mode != NoTrace {
		m.batch = bs
		m.ebuf = make([]trace.Event, 0, emitBatchSize)
	}
	m.stats.FuncInstrs = make([]uint64, len(p.Funcs))
	if config.Mode == PathTrace {
		nums, err := Numberings(p)
		if err != nil {
			return nil, err
		}
		m.nums = nums
	}
	m.funcs = make([]function, len(p.Funcs))
	for i, f := range p.Funcs {
		var num *bl.Numbering
		if m.nums != nil {
			num = m.nums[i]
		}
		m.funcs[i] = decode(f, num)
	}
	return m, nil
}

// Numbering exposes the Ball–Larus numbering of function fn (PathTrace
// machines only), which analyses use to map path IDs back to blocks.
func (m *Machine) Numbering(fn uint32) *bl.Numbering { return m.nums[fn] }

// Numberings returns the numbering of every function, indexed by function
// ID.
func (m *Machine) Numberings() []*bl.Numbering { return m.nums }

// Stats returns a snapshot of the statistics accumulated so far; later
// runs on the machine do not change it.
func (m *Machine) Stats() Stats {
	st := m.stats
	st.FuncInstrs = slices.Clone(m.stats.FuncInstrs)
	return st
}

// Run executes the named function with scalar arguments and returns its
// result.
func (m *Machine) Run(entry string, args ...int64) (int64, error) {
	f, ok := m.prog.ByName[entry]
	if !ok {
		return 0, fmt.Errorf("interp: no function %s", entry)
	}
	if len(args) != f.Params {
		return 0, fmt.Errorf("interp: %s takes %d argument(s), got %d", entry, f.Params, len(args))
	}
	fn := &m.funcs[f.ID]
	frame := m.push(fn, 0)
	for i, a := range args {
		frame[1+i] = Value{I: a}
	}
	res, err := m.run(fn, 0)
	clear(m.slab[:fn.nregs])
	// Flush on the error path too: a partial trace up to the fault is
	// still a valid trace, and Stats.Events must agree with what the
	// sink saw.
	m.flushEvents()
	if err != nil {
		return 0, err
	}
	return res.I, nil
}

// push returns f's zeroed register window at slab[top:], growing the
// slab if it is too short. Growing moves the slab, so callers re-slice
// their own windows after the call.
func (m *Machine) push(f *function, top int) []Value {
	end := top + f.nregs
	if end > len(m.slab) {
		slab := make([]Value, max(end, 2*len(m.slab)))
		copy(slab, m.slab)
		m.slab = slab
	}
	frame := m.slab[top:end]
	clear(frame)
	return frame
}

// emit delivers one event, through the batch buffer when the sink is
// batch-capable.
func (m *Machine) emit(e trace.Event) {
	m.stats.Events++
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
func (m *Machine) flushEvents() {
	if m.batch == nil || len(m.ebuf) == 0 {
		return
	}
	m.batch.AddBatch(m.ebuf)
	m.ebuf = m.ebuf[:0]
}

func fault(f *function, in *op, format string, args ...any) error {
	return &RuntimeError{Func: f.name, Pos: in.src.Pos, Msg: fmt.Sprintf(format, args...)}
}

// run executes f in the frame at slab[base:base+f.nregs], which the
// caller has pushed and loaded with the arguments. It is the whole
// interpreter: one loop over pre-decoded blocks, each a walk over its
// ops followed by the terminator and its path-register update. A fault
// returns at once, so the path it interrupts emits no event.
func (m *Machine) run(f *function, base int) (Value, error) {
	m.stats.Calls++
	top := base + f.nregs
	regs := m.slab[base:top]
	fnInstrs := &m.stats.FuncInstrs[f.id]
	limit := m.cfg.MaxInstrs
	mode := m.cfg.Mode
	var path uint64
	b := &f.blocks[f.entry]
	for {
		m.stats.Instructions += b.weight
		*fnInstrs += b.weight
		m.stats.BlocksExecuted++
		if limit > 0 && m.stats.Instructions > limit {
			return Value{}, fmt.Errorf("interp: %s: %w", f.name, ErrInstrLimit)
		}
		if mode == BlockTrace {
			m.emit(trace.MakeEvent(f.id, uint64(b.id)))
		}
		for i := range b.code {
			in := &b.code[i]
			if in.code >= opAdd {
				x, y := &regs[in.a], &regs[in.b]
				if x.Arr != nil || y.Arr != nil {
					return Value{}, fault(f, in, "arithmetic on array value")
				}
				a, c := x.I, y.I
				var v int64
				switch in.code {
				case opAdd:
					v = a + c
				case opSub:
					v = a - c
				case opMul:
					v = a * c
				case opDiv:
					if c == 0 {
						return Value{}, fault(f, in, "division by zero")
					}
					v = a / c
				case opRem:
					if c == 0 {
						return Value{}, fault(f, in, "remainder by zero")
					}
					v = a % c
				case opLt:
					v = b2i(a < c)
				case opLe:
					v = b2i(a <= c)
				case opGt:
					v = b2i(a > c)
				case opGe:
					v = b2i(a >= c)
				case opEq:
					v = b2i(a == c)
				case opNe:
					v = b2i(a != c)
				case opAnd:
					v = a & c
				case opOr:
					v = a | c
				case opXor:
					v = a ^ c
				case opShl:
					v = a << (uint64(c) & 63)
				case opShr:
					v = int64(uint64(a) >> (uint64(c) & 63))
				default:
					return Value{}, fault(f, in, "unknown operator %s", in.src.BinOp)
				}
				regs[in.dst] = Value{I: v}
				continue
			}
			switch in.code {
			case opConst:
				regs[in.dst] = Value{I: in.imm}
			case opMov:
				regs[in.dst] = regs[in.a]
			case opNot:
				regs[in.dst] = Value{I: b2i(!truthy(&regs[in.a]))}
			case opNeg:
				a := &regs[in.a]
				if a.Arr != nil {
					return Value{}, fault(f, in, "negation of array value")
				}
				regs[in.dst] = Value{I: -a.I}
			case opNewArr:
				n := &regs[in.a]
				if n.Arr != nil {
					return Value{}, fault(f, in, "array length is an array")
				}
				if n.I < 0 || n.I > 1<<30 {
					return Value{}, fault(f, in, "array length %d out of range", n.I)
				}
				regs[in.dst] = Value{Arr: make([]int64, n.I)}
			case opLen:
				a := &regs[in.a]
				if a.Arr == nil {
					return Value{}, fault(f, in, "len of non-array")
				}
				regs[in.dst] = Value{I: int64(len(a.Arr))}
			case opLoad:
				a, idx := &regs[in.a], &regs[in.b]
				if a.Arr == nil {
					return Value{}, fault(f, in, "indexing non-array")
				}
				if idx.Arr != nil || idx.I < 0 || idx.I >= int64(len(a.Arr)) {
					return Value{}, fault(f, in, "index %d out of range [0,%d)", idx.I, len(a.Arr))
				}
				regs[in.dst] = Value{I: a.Arr[idx.I]}
			case opStore:
				a, idx, v := &regs[in.a], &regs[in.b], &regs[in.dst]
				if a.Arr == nil {
					return Value{}, fault(f, in, "indexing non-array")
				}
				if idx.Arr != nil || idx.I < 0 || idx.I >= int64(len(a.Arr)) {
					return Value{}, fault(f, in, "index %d out of range [0,%d)", idx.I, len(a.Arr))
				}
				if v.Arr != nil {
					return Value{}, fault(f, in, "storing array into array element")
				}
				a.Arr[idx.I] = v.I
			case opCall:
				callee := &m.funcs[in.imm]
				frame := m.push(callee, top)
				for i, r := range in.src.Args {
					frame[1+i] = regs[r]
				}
				res, err := m.run(callee, top)
				clear(m.slab[top : top+callee.nregs])
				regs = m.slab[base:top]
				if err != nil {
					return Value{}, err
				}
				regs[in.dst] = res
			case opPrint:
				for i, r := range in.src.Args {
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
				return Value{}, fault(f, in, "unknown opcode %d", in.src.Op)
			}
		}
		var si int
		switch b.term {
		case wlc.TermBranch:
			if !truthy(&regs[b.cond]) {
				si = 1
			}
		case wlc.TermExit:
			if mode == PathTrace {
				m.emit(trace.MakeEvent(f.id, path))
			}
			return regs[0], nil
		}
		if m.cfg.EdgeSink != nil {
			m.cfg.EdgeSink(f.id, b.id, si)
		}
		if mode == PathTrace {
			ep := &b.plan[si]
			if ep.back {
				m.emit(trace.MakeEvent(f.id, path+ep.emitAdd))
				path = ep.reset
			} else {
				path += ep.add
			}
		}
		b = &f.blocks[b.succ[si]]
	}
}

func truthy(v *Value) bool {
	return v.Arr != nil || v.I != 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
