package interp

// Whole-pipeline randomized testing: generate random (but terminating,
// deterministic) WL programs, then check that every stage of the pipeline
// agrees with every other — plain vs traced vs optimized execution, block
// traces vs regenerated path traces, and grammar-based vs scan-based
// hot-subpath analysis.

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/hotpath"
	"repro/internal/trace"
	"repro/internal/wl"
	"repro/internal/wlc"
	iwpp "repro/internal/wpp"
)

// progGen generates random WL source text. Programs terminate because
// every loop carries a bounded fuel counter, and are non-recursive
// because functions only call strictly earlier functions.
type progGen struct {
	rng *rand.Rand
	sb  strings.Builder
	// vars are readable; targets are also assignable. Loop fuel counters
	// are readable but never assignment targets, or random stores could
	// reset them and defeat the termination bound.
	vars    []string
	targets []string
	funcs   []string // previously generated function names (callable)
	arities map[string]int
	nextVar int
	depth   int
	inLoop  int
}

func (g *progGen) gen() string {
	g.arities = map[string]int{}
	numFuncs := 1 + g.rng.Intn(3)
	for i := 0; i < numFuncs; i++ {
		g.genFunc(fmt.Sprintf("fn%d", i))
	}
	// main calls everything through the usual entry point.
	g.vars = []string{"n"}
	g.targets = []string{"n"}
	g.nextVar = 0
	g.sb.WriteString("func main(n) {\n")
	g.sb.WriteString("  var acc = 0;\n")
	g.vars = append(g.vars, "acc")
	g.targets = append(g.targets, "acc")
	for _, fn := range g.funcs {
		args := make([]string, g.arities[fn])
		for i := range args {
			args[i] = g.expr(1)
		}
		fmt.Fprintf(&g.sb, "  acc = acc + %s(%s);\n", fn, strings.Join(args, ", "))
	}
	g.stmts(2 + g.rng.Intn(4))
	g.sb.WriteString("  return acc;\n}\n")
	return g.sb.String()
}

func (g *progGen) genFunc(name string) {
	arity := 1 + g.rng.Intn(3)
	params := make([]string, arity)
	for i := range params {
		params[i] = fmt.Sprintf("p%d", i)
	}
	g.vars = append([]string{}, params...)
	g.targets = append([]string{}, params...)
	g.nextVar = 0
	fmt.Fprintf(&g.sb, "func %s(%s) {\n", name, strings.Join(params, ", "))
	g.sb.WriteString("  var acc = 0;\n")
	g.vars = append(g.vars, "acc")
	g.targets = append(g.targets, "acc")
	g.stmts(2 + g.rng.Intn(5))
	g.sb.WriteString("  return acc;\n}\n")
	g.funcs = append(g.funcs, name)
	g.arities[name] = arity
}

func (g *progGen) freshVar() string {
	name := fmt.Sprintf("v%d", g.nextVar)
	g.nextVar++
	return name
}

func (g *progGen) pickVar() string {
	return g.vars[g.rng.Intn(len(g.vars))]
}

func (g *progGen) pickTarget() string {
	return g.targets[g.rng.Intn(len(g.targets))]
}

func (g *progGen) stmts(n int) {
	for i := 0; i < n; i++ {
		g.stmt()
	}
}

func (g *progGen) stmt() {
	if g.depth > 3 {
		fmt.Fprintf(&g.sb, "  %s = %s;\n", g.pickTarget(), g.expr(2))
		return
	}
	switch g.rng.Intn(10) {
	case 0, 1:
		v := g.freshVar()
		fmt.Fprintf(&g.sb, "  var %s = %s;\n", v, g.expr(2))
		g.vars = append(g.vars, v)
		g.targets = append(g.targets, v)
	case 2, 3, 4:
		fmt.Fprintf(&g.sb, "  %s = %s;\n", g.pickTarget(), g.expr(2))
	case 5, 6:
		g.depth++
		fmt.Fprintf(&g.sb, "  if %s {\n", g.expr(2))
		g.stmts(1 + g.rng.Intn(2))
		if g.rng.Intn(2) == 0 {
			g.sb.WriteString("  } else {\n")
			g.stmts(1 + g.rng.Intn(2))
		}
		g.sb.WriteString("  }\n")
		g.depth--
	case 7:
		// Fuel-bounded while loop.
		fuel := g.freshVar()
		bound := 1 + g.rng.Intn(12)
		fmt.Fprintf(&g.sb, "  var %s = 0;\n", fuel)
		g.vars = append(g.vars, fuel)
		g.depth++
		g.inLoop++
		fmt.Fprintf(&g.sb, "  while %s < %d && (%s) {\n", fuel, bound, g.expr(2))
		fmt.Fprintf(&g.sb, "    %s = %s + 1;\n", fuel, fuel)
		g.stmts(1 + g.rng.Intn(2))
		g.loopJump()
		g.sb.WriteString("  }\n")
		g.inLoop--
		g.depth--
	case 8:
		// Bounded for loop.
		iv := g.freshVar()
		bound := 1 + g.rng.Intn(10)
		g.depth++
		g.inLoop++
		fmt.Fprintf(&g.sb, "  for var %s = 0; %s < %d; %s = %s + 1 {\n", iv, iv, bound, iv, iv)
		g.vars = append(g.vars, iv)
		g.stmts(1 + g.rng.Intn(2))
		g.loopJump()
		g.sb.WriteString("  }\n")
		g.inLoop--
		g.depth--
	default:
		fmt.Fprintf(&g.sb, "  %s = %s;\n", g.pickTarget(), g.expr(3))
	}
}

// loopJump occasionally emits a guarded break or continue.
func (g *progGen) loopJump() {
	if g.inLoop == 0 || g.rng.Intn(4) != 0 {
		return
	}
	kw := "break"
	if g.rng.Intn(2) == 0 {
		kw = "continue"
	}
	fmt.Fprintf(&g.sb, "    if %s { %s; }\n", g.expr(1), kw)
}

var binOps = []string{"+", "-", "*", "<", "<=", ">", ">=", "==", "!=", "&", "|", "^"}

func (g *progGen) expr(depth int) string {
	if depth <= 0 {
		if g.rng.Intn(2) == 0 {
			return g.pickVar()
		}
		return fmt.Sprint(g.rng.Intn(64))
	}
	switch g.rng.Intn(12) {
	case 0, 1, 2, 3:
		op := binOps[g.rng.Intn(len(binOps))]
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
	case 4:
		// Division/remainder with a nonzero literal divisor.
		op := "/"
		if g.rng.Intn(2) == 0 {
			op = "%"
		}
		return fmt.Sprintf("(%s %s %d)", g.expr(depth-1), op, 1+g.rng.Intn(16))
	case 5:
		op := "&&"
		if g.rng.Intn(2) == 0 {
			op = "||"
		}
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1), op, g.expr(depth-1))
	case 6:
		if g.rng.Intn(2) == 0 {
			return fmt.Sprintf("(!%s)", g.expr(depth-1))
		}
		return fmt.Sprintf("(-%s)", g.expr(depth-1))
	case 7:
		// Shift with a small literal count.
		op := "<<"
		if g.rng.Intn(2) == 0 {
			op = ">>"
		}
		return fmt.Sprintf("(%s %s %d)", g.expr(depth-1), op, g.rng.Intn(8))
	case 8:
		if len(g.funcs) > 0 {
			fn := g.funcs[g.rng.Intn(len(g.funcs))]
			args := make([]string, g.arities[fn])
			for i := range args {
				args[i] = g.expr(depth - 1)
			}
			return fmt.Sprintf("%s(%s)", fn, strings.Join(args, ", "))
		}
		return g.pickVar()
	default:
		if g.rng.Intn(2) == 0 {
			return g.pickVar()
		}
		return fmt.Sprint(g.rng.Intn(1000))
	}
}

func TestRandomProgramsPipelineConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	trials := 60
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		g := &progGen{rng: rng}
		src := g.gen()
		checkPipeline(t, trial, src)
	}
}

func checkPipeline(t *testing.T, trial int, src string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("trial %d: %s\nprogram:\n%s", trial, fmt.Sprintf(format, args...), src)
	}
	prog, err := wlc.Compile(src)
	if err != nil {
		fail("compile: %v", err)
	}
	if err := prog.Verify(); err != nil {
		fail("IR verification: %v", err)
	}
	const arg = 17
	const budget = 20_000_000

	// Plain run.
	mPlain, err := New(prog, Config{MaxInstrs: budget})
	if err != nil {
		fail("new: %v", err)
	}
	want, err := mPlain.Run("main", arg)
	if err != nil {
		fail("plain run: %v", err)
	}

	// Block-traced run.
	var blocks []trace.Event
	mBlock, err := New(prog, Config{Mode: BlockTrace, MaxInstrs: budget, Sink: trace.SinkFunc(func(e trace.Event) { blocks = append(blocks, e) })})
	if err != nil {
		fail("new block: %v", err)
	}
	if got, err := mBlock.Run("main", arg); err != nil || got != want {
		fail("block-traced: got %d err %v, want %d", got, err, want)
	}

	// Path-traced run building a WPP online.
	var events []trace.Event
	var builder iwpp.Builder
	mPath, err := New(prog, Config{Mode: PathTrace, MaxInstrs: budget, Sink: trace.SinkFunc(func(e trace.Event) {
		events = append(events, e)
		builder.Add(e)
	})})
	if err != nil {
		fail("new path: %v", err)
	}
	names := prog.FuncNames()
	builder = iwpp.New(names, mPath.Numberings(), iwpp.BuildOptions{})
	if got, err := mPath.Run("main", arg); err != nil || got != want {
		fail("path-traced: got %d err %v, want %d", got, err, want)
	}
	if mPath.Stats().Instructions != mPlain.Stats().Instructions {
		fail("instruction counts differ: %d vs %d", mPath.Stats().Instructions, mPlain.Stats().Instructions)
	}

	// Per-function block sequences must match path regeneration
	// (functions are non-recursive by construction).
	perFuncBlocks := map[uint32][]cfg.BlockID{}
	for _, e := range blocks {
		perFuncBlocks[e.Func()] = append(perFuncBlocks[e.Func()], cfg.BlockID(e.Path()))
	}
	perFuncRegen := map[uint32][]cfg.BlockID{}
	for _, e := range events {
		seq, err := mPath.Numberings()[e.Func()].Regenerate(e.Path())
		if err != nil {
			fail("regenerate %v: %v", e, err)
		}
		perFuncRegen[e.Func()] = append(perFuncRegen[e.Func()], seq...)
	}
	for fn, wantSeq := range perFuncBlocks {
		if !reflect.DeepEqual(perFuncRegen[fn], wantSeq) {
			fail("function %s: regenerated blocks diverge", names[fn])
		}
	}

	// WPP round trip.
	w := builder.Finish(mPath.Stats().Instructions).(*iwpp.WPP)
	if err := w.Verify(1); err != nil {
		fail("wpp verify: %v", err)
	}
	var walked []trace.Event
	w.Walk(func(e trace.Event) bool { walked = append(walked, e); return true })
	if !reflect.DeepEqual(walked, events) {
		fail("wpp expansion diverges from raw events")
	}

	// Grammar analysis vs scan oracle.
	opts := hotpath.Options{MinLen: 2, MaxLen: 5, Threshold: 0.01}
	fast, err := hotpath.Find(w, opts, 1)
	if err != nil {
		fail("find: %v", err)
	}
	slow, err := hotpath.FindByScan(w, opts)
	if err != nil {
		fail("scan: %v", err)
	}
	if !reflect.DeepEqual(fast, slow) {
		fail("hot subpath analyses disagree (%d vs %d)", len(fast), len(slow))
	}

	// Formatting round trip must preserve semantics.
	parsed, err := wl.Parse(src)
	if err != nil {
		fail("reparse: %v", err)
	}
	formatted := wl.Format(parsed)
	fProg, err := wlc.Compile(formatted)
	if err != nil {
		fail("compile of formatted source: %v\nformatted:\n%s", err, formatted)
	}
	mFmt, err := New(fProg, Config{MaxInstrs: budget})
	if err != nil {
		fail("new fmt: %v", err)
	}
	if got, err := mFmt.Run("main", arg); err != nil || got != want {
		fail("formatted source: got %d err %v, want %d", got, err, want)
	}

	// Optimized build must agree semantically.
	optProg, err := wlc.CompileWithOptions(src, wlc.Options{ConstFold: true})
	if err != nil {
		fail("optimized compile: %v", err)
	}
	if err := optProg.Verify(); err != nil {
		fail("optimized IR verification: %v", err)
	}
	mOpt, err := New(optProg, Config{MaxInstrs: budget})
	if err != nil {
		fail("new opt: %v", err)
	}
	if got, err := mOpt.Run("main", arg); err != nil || got != want {
		fail("optimized: got %d err %v, want %d", got, err, want)
	}
	// Folding occasionally pessimizes slightly: declarations rescued from
	// eliminated dead code run once per call even though the original
	// never executed them. Allow that bounded slack but catch real
	// regressions.
	slack := 4 * mOpt.Stats().Calls
	if mOpt.Stats().Instructions > mPlain.Stats().Instructions+slack {
		fail("optimized build executed more instructions: %d vs %d (+%d slack)",
			mOpt.Stats().Instructions, mPlain.Stats().Instructions, slack)
	}
}
