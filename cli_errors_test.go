package repro_test

// Error-path hardening for the artifact-reading tools: every malformed
// input must produce a non-zero exit and a one-line diagnostic on
// stderr — never a panic, never a silent success. The corrupt inputs
// exercise the whole decode surface: empty files, unknown magic, and
// headers truncated after each artifact kind's magic.

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// overflowArtifact is a 222-byte WPP1 whose 65-rule grammar expands to
// 2^65+2 events (see internal/wpp/overflow_test.go, which builds it).
var overflowArtifact = filepath.Join("internal", "wpp", "testdata", "overflow65.wpp1")

// costOverflow is a WPP1 of four paths a whose one path costs 2^62
// instructions, so the trace's total path cost and every hot window's
// cost overflow 64 bits (see internal/hotpath/prune_test.go, which builds
// it). wpphot prices windows and wppstats -verify sums the path costs, so
// both must refuse it; the other tools read it as well formed.
var costOverflow = filepath.Join("internal", "hotpath", "testdata", "costoverflow.wpp1")

// overflowChunks is a 418-byte WPC1 of two chunks of 2^63 events each,
// whose total wraps to the header's 0 (built by the same test file).
var overflowChunks = filepath.Join("internal", "wpp", "testdata", "overflow2x63.wpc1")

func TestCLICorruptArtifacts(t *testing.T) {
	bin := buildTools(t)
	dir := t.TempDir()

	write := func(name string, data []byte) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	empty := write("empty.wpp", nil)
	badMagic := write("badmagic.wpp", []byte("XXXXsomebytes"))
	shortMagic := write("shortmagic.wpp", []byte("WP"))
	// Magic intact, header truncated mid-varint (0x80 has the
	// continuation bit set, so the reader wants more bytes).
	truncMono := write("trunc.wpp", []byte{'W', 'P', 'P', '1', 0x80})
	truncChunked := write("trunc.wpc", []byte{'W', 'P', 'C', '1', 0x03, 0x80})
	missing := filepath.Join(dir, "does-not-exist.wpp")
	// Well-framed artifacts whose grammar is cyclic: rule 1 expands to
	// event 0 followed by rule 1 itself. Each opens cleanly; expanding
	// the grammar would never terminate.
	funcs := []byte{1, 1, 'f', 0}  // one function "f", no path count
	costs := []byte{2, 0, 1, 1, 1} // events 0 and 1, cost 1 (v1 and v2 alike)
	cyclic := []byte{'S', 'Q', 'G', '1', 2, 2, 3, 3, 2, 0, 3}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cycMono := write("cyclic.wpp", cat([]byte("WPP1"), funcs, []byte{8, 8}, costs, cyclic))
	cycMono2 := write("cyclic2.wpp", cat([]byte("WPP2"), funcs, []byte{8, 8}, costs, cyclic))
	cycChunked := write("cyclic.wpc", cat([]byte("WPC1"), funcs, []byte{8, 8, 8, 0}, costs, []byte{1}, cyclic))

	inputs := []struct {
		name, path string
	}{
		{"missing file", missing},
		{"empty file", empty},
		{"bad magic", badMagic},
		{"short magic", shortMagic},
		{"truncated monolithic header", truncMono},
		{"truncated chunked header", truncChunked},
		{"cyclic WPP1 grammar", cycMono},
		{"cyclic WPP2 grammar", cycMono2},
		{"cyclic WPC1 grammar", cycChunked},
		// Expands to 2^65+2 events, which wraps to the header's 2.
		{"expansion-overflow WPP1 grammar", overflowArtifact},
		// Two chunks of 2^63 events, a total that wraps to the header's 0.
		{"chunk-sum-overflow WPC1", overflowChunks},
	}
	tools := []struct {
		tool string
		args func(path string) []string
	}{
		{"wppstats", func(p string) []string { return []string{p} }},
		{"wpphot", func(p string) []string { return []string{"-min", "2", "-max", "4", p} }},
		{"wppdiff", func(p string) []string { return []string{p, p} }},
	}

	// fails runs tool on args, requiring a nonzero exit, a diagnostic
	// naming the tool on stderr that contains want, and no panic.
	fails := func(t *testing.T, tool string, args []string, want string) {
		cmd := exec.Command(filepath.Join(bin, tool), args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = &stderr
		err := cmd.Run()
		if err == nil {
			t.Fatalf("%s %v exited 0\nstdout:\n%s", tool, args, stdout.String())
		}
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("%s did not run: %v", tool, err)
		}
		msg := stderr.String()
		if !strings.Contains(msg, tool+":") || !strings.Contains(msg, want) {
			t.Errorf("stderr lacks a %q diagnostic containing %q:\n%s", tool+":", want, msg)
		}
		for _, stream := range []string{msg, stdout.String()} {
			if strings.Contains(stream, "panic:") {
				t.Errorf("%s panicked on %v:\n%s", tool, args, stream)
			}
		}
	}
	for _, tool := range tools {
		for _, in := range inputs {
			t.Run(tool.tool+"/"+strings.ReplaceAll(in.name, " ", "-"), func(t *testing.T) {
				fails(t, tool.tool, tool.args(in.path), "")
			})
		}
	}
	t.Run("wpphot/cost-overflow-WPP1", func(t *testing.T) {
		fails(t, "wpphot", []string{"-min", "2", "-max", "4", costOverflow}, "cost overflows 64 bits")
	})
	t.Run("wppstats-verify/cost-overflow-WPP1", func(t *testing.T) {
		fails(t, "wppstats", []string{"-verify", costOverflow}, "total path cost overflows 64 bits")
	})
}

// TestCLIVerifyOverflowFails: wppstats -verify refuses the overflowing
// artifact at once. It is checked in grammar time, so nothing walks the
// 2^65 events the grammar describes.
func TestCLIVerifyOverflowFails(t *testing.T) {
	bin := buildTools(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	out, err := exec.CommandContext(ctx, filepath.Join(bin, "wppstats"), "-verify", overflowArtifact).CombinedOutput()
	elapsed := time.Since(start)
	if _, ok := err.(*exec.ExitError); !ok || ctx.Err() != nil {
		t.Fatalf("wppstats -verify = %v, want a nonzero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "overflows 64 bits") {
		t.Errorf("diagnostic does not name the overflow:\n%s", out)
	}
	if elapsed >= time.Second {
		t.Errorf("wppstats -verify took %v, want under 1s", elapsed)
	}
}
