package repro_test

// wppstats on both artifact kinds: a chunked artifact goes through the
// same verification and the same reports as its monolithic twin.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	iwpp "repro/internal/wpp"
)

var goldenDir = filepath.Join("internal", "experiments", "testdata", "golden")

// TestWppstatsCoverageVerifiesFirst: an artifact whose header
// undercounts its events by one must fail verification before
// -coverage prints anything, on both artifact kinds.
func TestWppstatsCoverageVerifiesFirst(t *testing.T) {
	bin := buildTools(t)
	for _, file := range []string{"expr.wpc1", "expr.wpp1"} {
		t.Run(file, func(t *testing.T) {
			enc, err := os.ReadFile(filepath.Join(goldenDir, file))
			if err != nil {
				t.Fatal(err)
			}
			a, err := iwpp.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			switch a := a.(type) {
			case *iwpp.WPP:
				a.Events--
			case *iwpp.ChunkedWPP:
				a.Events--
			}
			var buf bytes.Buffer
			if _, err := a.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), file)
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(filepath.Join(bin, "wppstats"), "-coverage", "-workload", "expr", path)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err = cmd.Run()
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
				t.Fatalf("wppstats -coverage on a miscounted %s: %v, want exit 1\nstdout:\n%s", file, err, stdout.String())
			}
			if !strings.Contains(stderr.String(), "fails verification") {
				t.Fatalf("stderr lacks the verification failure:\n%s", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("printed a report for an artifact that fails verification:\n%s", stdout.String())
			}
		})
	}
}

// TestWppstatsProfileChunkedMatchesMonolithic: the -profile and -funcs
// rows of every chunked golden artifact equal those of its monolithic
// twin.
func TestWppstatsProfileChunkedMatchesMonolithic(t *testing.T) {
	bin := buildTools(t)
	monos, err := filepath.Glob(filepath.Join(goldenDir, "*.wpp1"))
	if err != nil || len(monos) == 0 {
		t.Fatalf("golden corpus unavailable: %v", err)
	}
	rows := func(path string) string {
		out := runTool(t, filepath.Join(bin, "wppstats"), "-profile", "5", "-funcs", path)
		i := strings.Index(out, "path profile")
		if i < 0 || !strings.Contains(out[i:], "function profile:") {
			t.Fatalf("wppstats -profile 5 -funcs %s printed no profiles:\n%s", path, out)
		}
		return out[i:]
	}
	for _, mono := range monos {
		want := rows(mono)
		base := strings.TrimSuffix(mono, ".wpp1")
		for _, chunked := range []string{base + ".wpc1", base + ".wpc2"} {
			if got := rows(chunked); got != want {
				t.Errorf("%s profile rows differ from %s:\n%s\nwant:\n%s", chunked, mono, got, want)
			}
		}
	}
}

// TestWppstatsGrammarBytesFromFile: wppstats takes "grammar only" from
// the artifact's own bytes, so a v2 artifact's grammars are counted
// ranked. On a chunked file it is the chunk grammars' bytes exactly; on
// every file it is below the whole file's size, and a v2 twin's is
// below its v1 twin's.
func TestWppstatsGrammarBytesFromFile(t *testing.T) {
	bin := buildTools(t)
	dir := t.TempDir()
	grammarOnly := regexp.MustCompile(`(?m)^grammar only: +(\d+) bytes$`)
	for _, extra := range [][]string{nil, {"-chunk", "4096", "-workers", "2"}} {
		sizes := map[string]int64{}
		for _, format := range []string{"wpp1", "wpp2"} {
			path := filepath.Join(dir, format+strings.Join(extra, ""))
			runTool(t, filepath.Join(bin, "wppbuild"), append([]string{"-o", path, "-workload", "expr", "-scale", "small", "-format", format}, extra...)...)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out := runTool(t, filepath.Join(bin, "wppstats"), path)
			m := grammarOnly.FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("%s %v: no grammar size printed:\n%s", format, extra, out)
			}
			grammar, _ := strconv.ParseInt(m[1], 10, 64)
			if grammar <= 0 || grammar >= int64(len(data)) {
				t.Fatalf("%s %v: grammar only %d bytes, the whole file %d", format, extra, grammar, len(data))
			}
			if extra != nil {
				v, err := iwpp.NewView(data, nil)
				if err != nil {
					t.Fatal(err)
				}
				_, chunks, err := v.Parts()
				if err != nil {
					t.Fatal(err)
				}
				var want int64
				for _, c := range chunks {
					want += int64(len(c))
				}
				if grammar != want {
					t.Fatalf("%s %v: grammar only %d bytes, the chunk grammars hold %d", format, extra, grammar, want)
				}
			}
			sizes[format] = grammar
		}
		if sizes["wpp2"] >= sizes["wpp1"] {
			t.Fatalf("%v: v2 grammars %d bytes, v1 %d: ranked terminals must be smaller", extra, sizes["wpp2"], sizes["wpp1"])
		}
	}
}
