package interp

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/trace"
	"repro/internal/wlc"
)

func run(t *testing.T, src string, args ...int64) int64 {
	t.Helper()
	p, err := wlc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run("main", args...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runErr(t *testing.T, src string, args ...int64) error {
	t.Helper()
	p, err := wlc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run("main", args...)
	if err == nil {
		t.Fatal("expected runtime error")
	}
	return err
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"func main() { return 2 + 3 * 4; }", 14},
		{"func main() { return (2 + 3) * 4; }", 20},
		{"func main() { return 10 / 3; }", 3},
		{"func main() { return 10 % 3; }", 1},
		{"func main() { return 0 - 7; }", -7},
		{"func main() { return -7 % 3; }", -1},
		{"func main() { return 1 << 10; }", 1024},
		{"func main() { return 1024 >> 3; }", 128},
		{"func main() { return (0 - 1) >> 1; }", int64(^uint64(0) >> 1)}, // logical shift
		{"func main() { return 12 & 10; }", 8},
		{"func main() { return 12 | 10; }", 14},
		{"func main() { return 12 ^ 10; }", 6},
		{"func main() { return 3 < 4; }", 1},
		{"func main() { return 4 <= 3; }", 0},
		{"func main() { return 4 > 3; }", 1},
		{"func main() { return 3 >= 4; }", 0},
		{"func main() { return 3 == 3; }", 1},
		{"func main() { return 3 != 3; }", 0},
		{"func main() { return !5; }", 0},
		{"func main() { return !0; }", 1},
		{"func main() { return 1 && 2; }", 1},
		{"func main() { return 1 && 0; }", 0},
		{"func main() { return 0 || 0; }", 0},
		{"func main() { return 0 || 9; }", 1},
	}
	for _, c := range cases {
		if got := run(t, c.src); got != c.want {
			t.Errorf("%s = %d, want %d", c.src, got, c.want)
		}
	}
}

func TestControlFlowPrograms(t *testing.T) {
	fib := `
func main(n) {
    if n < 2 { return n; }
    var a = 0;
    var b = 1;
    var i = 2;
    while i <= n {
        var c = a + b;
        a = b;
        b = c;
        i = i + 1;
    }
    return b;
}`
	if got := run(t, fib, 20); got != 6765 {
		t.Fatalf("fib(20) = %d", got)
	}

	gcd := `
func main(a, b) {
    while b != 0 {
        var tmp = a % b;
        a = b;
        b = tmp;
    }
    return a;
}`
	if got := run(t, gcd, 1071, 462); got != 21 {
		t.Fatalf("gcd = %d", got)
	}

	collatz := `
func main(n) {
    var steps = 0;
    while n != 1 {
        if n % 2 == 0 { n = n / 2; } else { n = 3 * n + 1; }
        steps = steps + 1;
    }
    return steps;
}`
	if got := run(t, collatz, 27); got != 111 {
		t.Fatalf("collatz(27) = %d", got)
	}
}

func TestRecursion(t *testing.T) {
	fact := `
func fact(n) {
    if n <= 1 { return 1; }
    return n * fact(n - 1);
}
func main(n) { return fact(n); }`
	if got := run(t, fact, 10); got != 3628800 {
		t.Fatalf("fact(10) = %d", got)
	}

	ack := `
func ack(m, n) {
    if m == 0 { return n + 1; }
    if n == 0 { return ack(m - 1, 1); }
    return ack(m - 1, ack(m, n - 1));
}
func main() { return ack(2, 3); }`
	if got := run(t, ack); got != 9 {
		t.Fatalf("ack(2,3) = %d", got)
	}
}

func TestArrays(t *testing.T) {
	src := `
func main(n) {
    var a = array(n);
    var i = 0;
    while i < n { a[i] = i * i; i = i + 1; }
    var s = 0;
    i = 0;
    while i < len(a) { s = s + a[i]; i = i + 1; }
    return s;
}`
	if got := run(t, src, 10); got != 285 {
		t.Fatalf("sum of squares = %d", got)
	}
}

func TestArraysPassedByReference(t *testing.T) {
	src := `
func fill(a, v) {
    var i = 0;
    while i < len(a) { a[i] = v; i = i + 1; }
    return 0;
}
func main() {
    var a = array(5);
    fill(a, 7);
    return a[0] + a[4];
}`
	if got := run(t, src); got != 14 {
		t.Fatalf("got %d", got)
	}
}

func TestShortCircuitSkipsSideEffects(t *testing.T) {
	src := `
func touch(a) { a[0] = a[0] + 1; return 1; }
func main() {
    var a = array(1);
    var x = 0 && touch(a);
    var y = 1 || touch(a);
    var z = 1 && touch(a);
    return a[0] * 100 + x * 10 + y + z;
}`
	// touch runs exactly once (for z): a[0]=1, x=0, y=1, z=1.
	if got := run(t, src); got != 102 {
		t.Fatalf("got %d, want 102", got)
	}
}

func TestBreakContinue(t *testing.T) {
	src := `
func main(n) {
    var s = 0;
    var i = 0;
    while 1 {
        i = i + 1;
        if i > n { break; }
        if i % 2 == 0 { continue; }
        s = s + i;
    }
    return s;
}`
	if got := run(t, src, 10); got != 25 {
		t.Fatalf("sum of odds = %d", got)
	}
}

func TestPrint(t *testing.T) {
	p, err := wlc.Compile(`func main() { print 1, 2 + 3; print 42; return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	m, err := New(p, Config{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("main"); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "1 5\n42\n" {
		t.Fatalf("print output %q", got)
	}
}

// faultSrc runs work three times with a two-trip loop in each call, so
// main and work have both emitted path events when the statement put in
// place of %s faults on the third call (i == 2). a has length 3.
const faultSrc = `
func work(a, i) {
    var s = 0;
    var k = 0;
    while k < 2 { s = s + k; k = k + 1; }
    if i == 2 {
        %s
    }
    return s;
}
func main() {
    var a = array(3);
    var i = 0;
    var acc = 0;
    while i < 5 {
        acc = acc + work(a, i);
        i = i + 1;
    }
    return acc;
}`

// faultState is everything observable once a run stops at a fault.
type faultState struct {
	err    string
	stats  string // Stats formatted with %+v
	events string // PathTrace events delivered to a batch sink, as fn:path
}

// runToFault runs src's main under PathTrace into a trace.Buffer and
// records the state at the fault it must end in. It also runs src
// untraced and requires the same error and the same Stats bar Events.
func runToFault(t *testing.T, src string, maxInstrs uint64) (faultState, error) {
	t.Helper()
	p, err := wlc.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	buf := &trace.Buffer{}
	m, err := New(p, Config{Mode: PathTrace, Sink: buf, MaxInstrs: maxInstrs})
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := m.Run("main")
	if runErr == nil {
		t.Fatal("run did not fault")
	}
	st := m.Stats()
	evs := make([]string, len(buf.Events))
	for i, e := range buf.Events {
		evs[i] = fmt.Sprintf("%d:%d", e.Func(), e.Path())
	}
	got := faultState{err: runErr.Error(), stats: fmt.Sprintf("%+v", st), events: strings.Join(evs, " ")}

	plain, err := New(p, Config{MaxInstrs: maxInstrs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Run("main"); err == nil || err.Error() != got.err {
		t.Fatalf("untraced run: error %v, want %q", err, got.err)
	}
	st.Events = 0
	if ps := plain.Stats(); !reflect.DeepEqual(ps, st) {
		t.Fatalf("untraced run: stats %+v, want %+v", ps, st)
	}
	return got, runErr
}

// TestRuntimeErrors pins, for every RuntimeError kind, the exact error,
// Stats and flushed path events at the fault: the faulting path itself
// emits nothing.
// runtimeErrorCases cover every RuntimeError kind, at top level and
// inside a call after both functions have emitted path events.
var runtimeErrorCases = []struct {
	name, src string
	want      faultState
}{
	{"div0", "func main() { return 1 / 0; }", faultState{
		"runtime error in main at 1:24: division by zero",
		"{Instructions:6 Events:0 Calls:1 BlocksExecuted:2 FuncInstrs:[6]}",
		""}},
	{"rem0", "func main() { return 1 % 0; }", faultState{
		"runtime error in main at 1:24: remainder by zero",
		"{Instructions:6 Events:0 Calls:1 BlocksExecuted:2 FuncInstrs:[6]}",
		""}},
	{"oob", "func main() { var a = array(2); return a[5]; }", faultState{
		"runtime error in main at 1:40: index 5 out of range [0,2)",
		"{Instructions:8 Events:0 Calls:1 BlocksExecuted:2 FuncInstrs:[8]}",
		""}},
	{"oob-neg", "func main() { var a = array(2); return a[0-1]; }", faultState{
		"runtime error in main at 1:40: index -1 out of range [0,2)",
		"{Instructions:10 Events:0 Calls:1 BlocksExecuted:2 FuncInstrs:[10]}",
		""}},
	{"oob-store", "func main() { var a = array(2); a[2] = 1; return 0; }", faultState{
		"runtime error in main at 1:33: index 2 out of range [0,2)",
		"{Instructions:10 Events:0 Calls:1 BlocksExecuted:2 FuncInstrs:[10]}",
		""}},
	{"index-scalar", "func main() { var x = 3; return x[0]; }", faultState{
		"runtime error in main at 1:33: indexing non-array",
		"{Instructions:7 Events:0 Calls:1 BlocksExecuted:2 FuncInstrs:[7]}",
		""}},
	{"len-scalar", "func main() { return len(3); }", faultState{
		"runtime error in main at 1:22: len of non-array",
		"{Instructions:5 Events:0 Calls:1 BlocksExecuted:2 FuncInstrs:[5]}",
		""}},
	{"neg-len", "func main() { var a = array(0-1); return 0; }", faultState{
		"runtime error in main at 1:23: array length -1 out of range",
		"{Instructions:9 Events:0 Calls:1 BlocksExecuted:2 FuncInstrs:[9]}",
		""}},
	{"arith-array", "func main() { var a = array(1); return a + 1; }", faultState{
		"runtime error in main at 1:42: arithmetic on array value",
		"{Instructions:8 Events:0 Calls:1 BlocksExecuted:2 FuncInstrs:[8]}",
		""}},
	{"nested-arith-array", fmt.Sprintf(faultSrc, "s = s * a;"), faultState{
		"runtime error in work at 7:15: arithmetic on array value",
		"{Instructions:138 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[99 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
	{"nested-neg-array", fmt.Sprintf(faultSrc, "s = -a;"), faultState{
		"runtime error in work at 7:13: negation of array value",
		"{Instructions:138 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[99 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
	{"nested-div0", fmt.Sprintf(faultSrc, "s = s / (i - 2);"), faultState{
		"runtime error in work at 7:15: division by zero",
		"{Instructions:140 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[101 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
	{"nested-rem0", fmt.Sprintf(faultSrc, "s = s % (i - 2);"), faultState{
		"runtime error in work at 7:15: remainder by zero",
		"{Instructions:140 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[101 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
	{"nested-oob", fmt.Sprintf(faultSrc, "s = a[i + 1];"), faultState{
		"runtime error in work at 7:13: index 3 out of range [0,3)",
		"{Instructions:140 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[101 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
	{"nested-oob-store", fmt.Sprintf(faultSrc, "a[i + 1] = s;"), faultState{
		"runtime error in work at 7:9: index 3 out of range [0,3)",
		"{Instructions:139 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[100 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
	{"nested-index-scalar", fmt.Sprintf(faultSrc, "s = s[0];"), faultState{
		"runtime error in work at 7:13: indexing non-array",
		"{Instructions:139 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[100 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
	{"nested-index-array", fmt.Sprintf(faultSrc, "s = a[a];"), faultState{
		"runtime error in work at 7:13: index 0 out of range [0,3)",
		"{Instructions:138 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[99 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
	{"nested-store-scalar", fmt.Sprintf(faultSrc, "s[0] = 1;"), faultState{
		"runtime error in work at 7:9: indexing non-array",
		"{Instructions:139 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[100 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
	{"nested-store-array", fmt.Sprintf(faultSrc, "a[0] = a;"), faultState{
		"runtime error in work at 7:9: storing array into array element",
		"{Instructions:138 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[99 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
	{"nested-neg-len", fmt.Sprintf(faultSrc, "a = array(i - 3);"), faultState{
		"runtime error in work at 7:13: array length -1 out of range",
		"{Instructions:140 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[101 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
	{"nested-huge-len", fmt.Sprintf(faultSrc, "a = array(1 << 31);"), faultState{
		"runtime error in work at 7:13: array length 2147483648 out of range",
		"{Instructions:141 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[102 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
	{"nested-array-len", fmt.Sprintf(faultSrc, "a = array(a);"), faultState{
		"runtime error in work at 7:13: array length is an array",
		"{Instructions:138 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[99 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
	{"nested-len-scalar", fmt.Sprintf(faultSrc, "s = len(s);"), faultState{
		"runtime error in work at 7:13: len of non-array",
		"{Instructions:138 Events:10 Calls:4 BlocksExecuted:37 FuncInstrs:[99 39]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3"}},
}

func TestRuntimeErrors(t *testing.T) {
	for _, c := range runtimeErrorCases {
		t.Run(c.name, func(t *testing.T) {
			got, err := runToFault(t, c.src, 0)
			var re *RuntimeError
			if !errors.As(err, &re) {
				t.Fatalf("error %T is not a RuntimeError", err)
			}
			if got != c.want {
				t.Fatalf("fault state\n got %#v\nwant %#v", got, c.want)
			}
		})
	}
}

// instrLimitCases trip the instruction limit at top level, inside a
// call, and on the exit block.
var instrLimitCases = []struct {
	name      string
	src       string
	maxInstrs uint64
	want      faultState
}{
	{"loop", "func main() { var i = 0; while i >= 0 { i = i + 1; } return i; }", 100, faultState{
		"interp: main: instruction limit exceeded",
		"{Instructions:102 Events:13 Calls:1 BlocksExecuted:30 FuncInstrs:[102]}",
		"0:0 0:2 0:2 0:2 0:2 0:2 0:2 0:2 0:2 0:2 0:2 0:2 0:2"}},
	// work's loop on its second call.
	{"nested-call", fmt.Sprintf(faultSrc, "s = 0;"), 75, faultState{
		"interp: work: instruction limit exceeded",
		"{Instructions:77 Events:4 Calls:3 BlocksExecuted:20 FuncInstrs:[48 29]}",
		"0:0 0:3 0:5 1:0"}},
	// One instruction short of the full run's 233: the exit block trips.
	{"exit-block", fmt.Sprintf(faultSrc, "s = 0;"), 232, faultState{
		"interp: main: instruction limit exceeded",
		"{Instructions:233 Events:20 Calls:6 BlocksExecuted:66 FuncInstrs:[168 65]}",
		"0:0 0:3 0:5 1:0 0:0 0:3 0:5 1:2 0:0 0:3 0:4 1:2 0:0 0:3 0:5 1:2 0:0 0:3 0:5 1:2"}},
}

// TestInstrLimit pins the state at an instruction-limit fault: the
// limit trips on the block whose weight crosses it, that block is
// counted, and no event is emitted for it.
func TestInstrLimit(t *testing.T) {
	for _, c := range instrLimitCases {
		t.Run(c.name, func(t *testing.T) {
			got, err := runToFault(t, c.src, c.maxInstrs)
			if !errors.Is(err, ErrInstrLimit) {
				t.Fatalf("got %v, want ErrInstrLimit", err)
			}
			if got != c.want {
				t.Fatalf("fault state\n got %#v\nwant %#v", got, c.want)
			}
		})
	}
}

func TestRunArgValidation(t *testing.T) {
	p, err := wlc.Compile("func main(a) { return a; }")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("nope"); err == nil {
		t.Fatal("unknown entry accepted")
	}
	if _, err := m.Run("main"); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestTraceModeRequiresSink(t *testing.T) {
	p, err := wlc.Compile("func main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(p, Config{Mode: PathTrace}); err == nil {
		t.Fatal("PathTrace without sink accepted")
	}
}

func TestStatsCounters(t *testing.T) {
	p, err := wlc.Compile(`
func twice(x) { return x + x; }
func main() { return twice(1) + twice(2); }`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run("main"); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Calls != 3 {
		t.Fatalf("Calls = %d, want 3", st.Calls)
	}
	if st.Instructions == 0 || st.BlocksExecuted == 0 {
		t.Fatalf("zero counters: %+v", st)
	}
	// Stats is a snapshot: a second run moves the machine's counters,
	// not the ones already handed out.
	first := fmt.Sprintf("%+v", st)
	if _, err := m.Run("main"); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%+v", st); got != first {
		t.Fatalf("snapshot changed under a second run: %s, was %s", got, first)
	}
	if again := m.Stats(); again.Calls != 6 || again.FuncInstrs[0] != 2*st.FuncInstrs[0] {
		t.Fatalf("after two runs: %+v, first run %+v", again, st)
	}
}

const fibSrc = `
func fib(n) {
    if n < 2 { return n; }
    return fib(n - 1) + fib(n - 2);
}
func main(n) { return fib(n); }`

// TestRunAllocsFlatInCalls: once the frame slab has grown to the
// deepest call chain, a run allocates nothing per call, so fib(20) (21891
// calls) allocates no more than fib(15) (1973 calls).
func TestRunAllocsFlatInCalls(t *testing.T) {
	p, err := wlc.Compile(fibSrc)
	if err != nil {
		t.Fatal(err)
	}
	var events int
	m, err := New(p, Config{Mode: PathTrace, Sink: trace.SinkFunc(func(trace.Event) { events++ })})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := m.Run("main", n); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(20)
	if a15, a20 := allocs(15), allocs(20); a15 != a20 {
		t.Fatalf("allocations grow with calls: fib(15) %.0f, fib(20) %.0f per run", a15, a20)
	}
}

const crossValidationSrc = `
func classify(x) {
    if x % 15 == 0 { return 3; }
    if x % 3 == 0 { return 1; }
    if x % 5 == 0 { return 2; }
    return 0;
}
func main(n) {
    var counts = array(4);
    var i = 1;
    while i <= n {
        var c = classify(i);
        counts[c] = counts[c] + 1;
        i = i + 1;
    }
    return counts[0] + 10 * counts[1] + 100 * counts[2] + 1000 * counts[3];
}`

// TestPathTraceMatchesBlockTrace is the pipeline's keystone property: for
// a non-recursive program, regenerating every function's path events must
// reproduce exactly the block sequence that a block-traced run observed.
func TestPathTraceMatchesBlockTrace(t *testing.T) {
	p, err := wlc.Compile(crossValidationSrc)
	if err != nil {
		t.Fatal(err)
	}

	var blocks []trace.Event
	mb, err := New(p, Config{Mode: BlockTrace, Sink: trace.SinkFunc(func(e trace.Event) { blocks = append(blocks, e) })})
	if err != nil {
		t.Fatal(err)
	}
	resB, err := mb.Run("main", 30)
	if err != nil {
		t.Fatal(err)
	}

	var paths []trace.Event
	mp, err := New(p, Config{Mode: PathTrace, Sink: trace.SinkFunc(func(e trace.Event) { paths = append(paths, e) })})
	if err != nil {
		t.Fatal(err)
	}
	resP, err := mp.Run("main", 30)
	if err != nil {
		t.Fatal(err)
	}
	if resB != resP {
		t.Fatalf("results differ under tracing: %d vs %d", resB, resP)
	}

	// Per function: concatenation of regenerated paths == block sequence.
	perFuncBlocks := map[uint32][]cfg.BlockID{}
	for _, e := range blocks {
		perFuncBlocks[e.Func()] = append(perFuncBlocks[e.Func()], cfg.BlockID(e.Path()))
	}
	perFuncRegen := map[uint32][]cfg.BlockID{}
	for _, e := range paths {
		num := mp.Numberings()[e.Func()]
		seq, err := num.Regenerate(e.Path())
		if err != nil {
			t.Fatalf("regenerating %v: %v", e, err)
		}
		perFuncRegen[e.Func()] = append(perFuncRegen[e.Func()], seq...)
	}
	for fn, want := range perFuncBlocks {
		if !reflect.DeepEqual(perFuncRegen[fn], want) {
			t.Fatalf("function %d (%s): regenerated blocks differ\n got=%v\nwant=%v",
				fn, p.Funcs[fn].Name, perFuncRegen[fn], want)
		}
	}
	if len(paths) >= len(blocks) {
		t.Fatalf("path trace (%d events) should be shorter than block trace (%d)", len(paths), len(blocks))
	}
}

func TestTracingDoesNotChangeSemantics(t *testing.T) {
	srcs := []string{
		crossValidationSrc,
		"func main(n) { var s = 0; var i = 0; while i < n { s = s + i; i = i + 1; } return s; }",
	}
	for _, src := range srcs {
		p, err := wlc.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		want := run(t, src, 17)
		for _, mode := range []Mode{BlockTrace, PathTrace} {
			m, err := New(p, Config{Mode: mode, Sink: trace.SinkFunc(func(trace.Event) {})})
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Run("main", 17)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("mode %d: got %d, want %d", mode, got, want)
			}
		}
	}
}
