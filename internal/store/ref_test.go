package store

import "testing"

func TestIsRef(t *testing.T) {
	cases := map[string]bool{
		"@ab12cd34":      true,
		"@":              false,
		"expr@small":     true,
		"expr@medium":    true,
		"expr@large":     true,
		"expr@huge":      false,
		"nosuch@small":   false,
		"out.wpp":        false,
		"dir/expr@small": false,
		"expr":           false,
	}
	for arg, want := range cases {
		if got := IsRef(arg); got != want {
			t.Errorf("IsRef(%q) = %v, want %v", arg, got, want)
		}
	}
}

func TestDirFromFlag(t *testing.T) {
	t.Setenv(EnvDir, "/env/dir")
	if got := DirFromFlag(""); got != "/env/dir" {
		t.Fatalf("env fallback: %q", got)
	}
	if got := DirFromFlag("/flag/dir"); got != "/flag/dir" {
		t.Fatalf("flag should win: %q", got)
	}
}
