package repro_test

// End-to-end tests of the command-line tools: build each binary once,
// then drive the full tool chain the way a user would.

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// buildTools compiles every cmd/ binary into a shared temp dir, once per
// test run.
func buildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping CLI end-to-end in -short mode")
	}
	dir := t.TempDir()
	for _, tool := range []string{"wlrun", "wpptrace", "wppbuild", "wppstats", "wpphot", "wppbench", "wppdiff"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

func runTool(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

const cliProgram = `
func step(x) {
    if x % 2 == 0 { return x / 2; }
    return 3 * x + 1;
}
func main(n) {
    var total = 0;
    var i = 1;
    while i <= n {
        var x = i;
        while x != 1 { x = step(x); total = total + 1; }
        i = i + 1;
    }
    return total;
}`

func TestCLIToolChain(t *testing.T) {
	bin := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.wl")
	if err := os.WriteFile(src, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}

	// wlrun: plain, stats, disassembly, formatting, optimized.
	out := runTool(t, filepath.Join(bin, "wlrun"), "-stats", src, "60")
	if !strings.Contains(out, "result:") || !strings.Contains(out, "instructions:") {
		t.Fatalf("wlrun output:\n%s", out)
	}
	if out := runTool(t, filepath.Join(bin, "wlrun"), "-dis", src); !strings.Contains(out, "func main") {
		t.Fatalf("wlrun -dis output:\n%s", out)
	}
	if out := runTool(t, filepath.Join(bin, "wlrun"), "-fmt", "-O", src); !strings.Contains(out, "func step") {
		t.Fatalf("wlrun -fmt output:\n%s", out)
	}
	plain := runTool(t, filepath.Join(bin, "wlrun"), src, "60")
	optimized := runTool(t, filepath.Join(bin, "wlrun"), "-O", src, "60")
	if plainLine, optLine := firstLine(plain), firstLine(optimized); plainLine != optLine {
		t.Fatalf("optimization changed result: %q vs %q", plainLine, optLine)
	}

	// wpptrace -> raw trace file.
	traceFile := filepath.Join(dir, "prog.wpt")
	out = runTool(t, filepath.Join(bin, "wpptrace"), "-o", traceFile, src, "60")
	if !strings.Contains(out, "events:") {
		t.Fatalf("wpptrace output:\n%s", out)
	}
	if fi, err := os.Stat(traceFile); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing: %v", err)
	}

	// wppbuild from source and from the raw trace.
	wppFile := filepath.Join(dir, "prog.wpp")
	out = runTool(t, filepath.Join(bin, "wppbuild"), "-o", wppFile, src, "60")
	if !strings.Contains(out, "rules:") {
		t.Fatalf("wppbuild output:\n%s", out)
	}
	wppFromTrace := filepath.Join(dir, "fromtrace.wpp")
	runTool(t, filepath.Join(bin, "wppbuild"), "-o", wppFromTrace, "-trace", traceFile)

	// wppbuild from a built-in workload.
	wl := filepath.Join(dir, "workload.wpp")
	runTool(t, filepath.Join(bin, "wppbuild"), "-o", wl, "-workload", "queens", "-scale", "small")

	// wppstats on all artifacts, with every flag.
	out = runTool(t, filepath.Join(bin, "wppstats"), "-dump", "3", "-profile", "3", "-funcs", wppFile)
	for _, want := range []string{"events:", "trace prefix:", "path profile", "function profile"} {
		if !strings.Contains(out, want) {
			t.Fatalf("wppstats output missing %q:\n%s", want, out)
		}
	}
	if out := runTool(t, filepath.Join(bin, "wppstats"), "-dot", wppFile); !strings.Contains(out, "digraph") {
		t.Fatalf("wppstats -dot output:\n%s", out)
	}
	runTool(t, filepath.Join(bin, "wppstats"), wppFromTrace)

	// wpphot: grammar engine and scan engine must report the same count.
	hotG := runTool(t, filepath.Join(bin, "wpphot"), "-min", "2", "-max", "6", "-threshold", "0.02", wppFile)
	hotS := runTool(t, filepath.Join(bin, "wpphot"), "-min", "2", "-max", "6", "-threshold", "0.02", "-scan", wppFile)
	if firstLine(hotG) != firstLine(hotS) {
		t.Fatalf("wpphot engines disagree:\n%s\nvs\n%s", firstLine(hotG), firstLine(hotS))
	}
	if !strings.Contains(hotG, "minimal hot subpaths") {
		t.Fatalf("wpphot output:\n%s", hotG)
	}

	// wppbench, one cheap experiment.
	out = runTool(t, filepath.Join(bin, "wppbench"), "-exp", "a5", "-scale", "small")
	if !strings.Contains(out, "A5") {
		t.Fatalf("wppbench output:\n%s", out)
	}

	// wppdiff: identical artifacts, then diverging ones.
	out = runTool(t, filepath.Join(bin, "wppdiff"), wppFile, wppFile)
	if !strings.Contains(out, "identical") {
		t.Fatalf("wppdiff identical output:\n%s", out)
	}
	other := filepath.Join(dir, "other.wpp")
	runTool(t, filepath.Join(bin, "wppbuild"), "-o", other, src, "61")
	cmd := exec.Command(filepath.Join(bin, "wppdiff"), "-v", wppFile, other)
	diffOut, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("wppdiff of different traces exited 0:\n%s", diffOut)
	}
	if !strings.Contains(string(diffOut), "diverge at event") {
		t.Fatalf("wppdiff output:\n%s", diffOut)
	}

	// wppdiff -spectrum: identical, then differing.
	out = runTool(t, filepath.Join(bin, "wppdiff"), "-spectrum", wppFile, wppFile)
	if !strings.Contains(out, "identical spectra") {
		t.Fatalf("wppdiff -spectrum identical output:\n%s", out)
	}
	cmd = exec.Command(filepath.Join(bin, "wppdiff"), "-spectrum", wppFile, other)
	diffOut, err = cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("wppdiff -spectrum of different traces exited 0:\n%s", diffOut)
	}
	if !strings.Contains(string(diffOut), "paths differ") {
		t.Fatalf("wppdiff -spectrum output:\n%s", diffOut)
	}
}

func TestCLIErrors(t *testing.T) {
	bin := buildTools(t)
	// Each tool must fail cleanly on bad input.
	cases := [][]string{
		{filepath.Join(bin, "wlrun"), "/nonexistent.wl"},
		{filepath.Join(bin, "wppstats"), "/nonexistent.wpp"},
		{filepath.Join(bin, "wpphot"), "/nonexistent.wpp"},
		{filepath.Join(bin, "wppbuild"), "-workload", "nope"},
		{filepath.Join(bin, "wppbench"), "-scale", "gigantic"},
	}
	for _, c := range cases {
		if err := exec.Command(c[0], c[1:]...).Run(); err == nil {
			t.Errorf("%v succeeded, want failure", c)
		}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestWppbuildPrintsBytesWritten: monolithic and chunked wpp2 builds
// print one encoded size, the "bytes written" line, equal to the
// written file's size, with the raw trace's ratio to it.
func TestWppbuildPrintsBytesWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI end-to-end in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "wppbuild")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/wppbuild").CombinedOutput(); err != nil {
		t.Fatalf("building wppbuild: %v\n%s", err, out)
	}
	written := regexp.MustCompile(`(?m)^bytes written: (\d+) \(ratio ([0-9.]+)x\)$`)
	raw := regexp.MustCompile(`(?m)^raw trace bytes: (\d+)$`)
	for _, extra := range [][]string{nil, {"-chunk", "4096", "-workers", "2"}} {
		out := filepath.Join(dir, "expr.wpp")
		args := append([]string{"-o", out, "-workload", "expr", "-scale", "small", "-format", "wpp2"}, extra...)
		printed := runTool(t, bin, args...)
		fi, err := os.Stat(out)
		if err != nil {
			t.Fatal(err)
		}
		sizes := written.FindAllStringSubmatch(printed, -1)
		if len(sizes) != 1 || strings.Contains(printed, "bytes in/out") {
			t.Fatalf("%v: want one bytes-written line and no other size:\n%s", extra, printed)
		}
		if n, _ := strconv.ParseInt(sizes[0][1], 10, 64); n != fi.Size() {
			t.Fatalf("%v: printed %d bytes written, the file holds %d", extra, n, fi.Size())
		}
		m := raw.FindStringSubmatch(printed)
		if m == nil {
			t.Fatalf("%v: no raw trace size printed:\n%s", extra, printed)
		}
		rawBytes, _ := strconv.ParseFloat(m[1], 64)
		if want := fmt.Sprintf("%.1f", rawBytes/float64(fi.Size())); sizes[0][2] != want {
			t.Fatalf("%v: printed ratio %sx, raw trace over file size is %sx", extra, sizes[0][2], want)
		}
	}
}
