package store

import (
	"os"
	"strings"

	"repro/internal/workloads"
)

// EnvDir is the environment variable naming the default store
// directory; CLI -store flags override it.
const EnvDir = "WPP_STORE"

// DirFromFlag resolves the effective store directory: the -store flag
// value if set, else $WPP_STORE, else "" (no store configured).
func DirFromFlag(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	return os.Getenv(EnvDir)
}

// IsRef reports whether arg is a store reference rather than a file
// path: "@<hash-prefix>" names a stored artifact, and
// "<workload>@<scale>" names a lazy build of a bundled workload.
// Anything else — including names that merely contain '@' — is a file
// path.
func IsRef(arg string) bool {
	if strings.HasPrefix(arg, "@") {
		return len(arg) > 1
	}
	name, scale, ok := strings.Cut(arg, "@")
	if !ok {
		return false
	}
	if _, err := workloads.ByName(name); err != nil {
		return false
	}
	switch scale {
	case "small", "medium", "large":
		return true
	}
	return false
}
