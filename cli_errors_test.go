package repro_test

// Error-path hardening for the artifact-reading tools: every malformed
// input must produce a non-zero exit and a one-line diagnostic on
// stderr — never a panic, never a silent success. The corrupt inputs
// exercise the whole decode surface: empty files, unknown magic, and
// headers truncated after each artifact kind's magic.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

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

	inputs := []struct {
		name, path string
	}{
		{"missing file", missing},
		{"empty file", empty},
		{"bad magic", badMagic},
		{"short magic", shortMagic},
		{"truncated monolithic header", truncMono},
		{"truncated chunked header", truncChunked},
	}
	tools := []struct {
		tool string
		args func(path string) []string
	}{
		{"wppstats", func(p string) []string { return []string{p} }},
		{"wpphot", func(p string) []string { return []string{"-min", "2", "-max", "4", p} }},
		{"wppdiff", func(p string) []string { return []string{p, p} }},
	}

	for _, tool := range tools {
		for _, in := range inputs {
			t.Run(tool.tool+"/"+strings.ReplaceAll(in.name, " ", "-"), func(t *testing.T) {
				cmd := exec.Command(filepath.Join(bin, tool.tool), tool.args(in.path)...)
				var stdout, stderr bytes.Buffer
				cmd.Stdout = &stdout
				cmd.Stderr = &stderr
				err := cmd.Run()
				if err == nil {
					t.Fatalf("%s on %s exited 0\nstdout:\n%s", tool.tool, in.name, stdout.String())
				}
				if _, ok := err.(*exec.ExitError); !ok {
					t.Fatalf("%s did not run: %v", tool.tool, err)
				}
				msg := stderr.String()
				if !strings.Contains(msg, tool.tool+":") {
					t.Errorf("stderr lacks %q diagnostic prefix:\n%s", tool.tool+":", msg)
				}
				for _, stream := range []string{msg, stdout.String()} {
					if strings.Contains(stream, "panic:") {
						t.Errorf("%s panicked on %s:\n%s", tool.tool, in.name, stream)
					}
				}
			})
		}
	}
}
