package experiments

// The golden-artifact corpus pins the on-disk bytes of all four codec
// generations (WPP1/WPP2 monolithic, WPC1/WPC2 chunked). Every bundled
// workload is rebuilt from source at Small scale and byte-compared
// against the committed artifact, so any codec drift — a changed varint
// layout, a reordered table, a grammar renumbering — is a test failure
// rather than a silent break of archived artifacts. Regenerate with
//
//	go test ./internal/experiments -run TestGoldenCorpus -update
//
// and review the resulting diff as a deliberate format change.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obsv"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden artifact corpus from fresh builds")

const (
	goldenChunkSize = 1024
	goldenWorkers   = 2
)

// goldenFormat is one committed encoding of one workload's artifact.
type goldenFormat struct {
	ext     string
	version uint8
	chunked bool
}

var goldenFormats = []goldenFormat{
	{"wpp1", iwpp.FormatV1, false},
	{"wpp2", iwpp.FormatV2, false},
	{"wpc1", iwpp.FormatV1, true},
	{"wpc2", iwpp.FormatV2, true},
}

// buildGolden reproduces one workload's artifacts exactly as the golden
// corpus was generated: the monolithic grammar from collectWorkload's
// build of the captured stream, the chunked artifact through the
// deployed parallel batch pipeline. The differential suites pin
// per-event and batch ingestion to equal grammars, so the choice of
// chain here is a determinism convention, not a semantic one.
func buildGolden(t *testing.T, name string) map[string][]byte {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	art, err := collectWorkload(w, Small)
	if err != nil {
		t.Fatal(err)
	}
	cb := iwpp.New(art.Names, art.Numberings, iwpp.BuildOptions{
		ChunkSize: goldenChunkSize,
		Workers:   goldenWorkers,
		Metrics:   iwpp.NewBuildMetrics(obsv.NewRegistry()),
	})
	feed(cb, art.Events, true)
	chunked := cb.Finish(art.Stats.Instructions)

	out := make(map[string][]byte, len(goldenFormats))
	for _, f := range goldenFormats {
		var a iwpp.Artifact = art.wpp
		if f.chunked {
			a = chunked
		}
		var buf bytes.Buffer
		if _, err := encodeAs(a, f.version, &buf); err != nil {
			t.Fatalf("%s.%s: %v", name, f.ext, err)
		}
		out[f.ext] = buf.Bytes()
	}
	return out
}

// encodeAs serializes the artifact at the requested format version.
func encodeAs(a iwpp.Artifact, version uint8, buf *bytes.Buffer) (int64, error) {
	switch t := a.(type) {
	case *iwpp.WPP:
		t.Version = version
	case *iwpp.ChunkedWPP:
		t.Version = version
	}
	return a.Encode(buf)
}

// TestGoldenCorpus rebuilds every bundled workload and byte-compares
// each of its four encodings against the committed golden artifact.
func TestGoldenCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			built := buildGolden(t, name)
			for _, f := range goldenFormats {
				path := filepath.Join(dir, name+"."+f.ext)
				if *updateGolden {
					if err := os.WriteFile(path, built[f.ext], 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden artifact (regenerate with -update): %v", err)
				}
				if !bytes.Equal(built[f.ext], want) {
					t.Errorf("%s: rebuilt artifact differs from committed golden bytes (%d vs %d bytes); codec drift?",
						path, len(built[f.ext]), len(want))
				}
			}
		})
	}
}

// TestV2NeverLargerOnBundledWorkloads is the size-regression guard the
// BENCH_eventpath trajectory claims: for every bundled workload, the v2
// encoding of an artifact is no larger than the v1 encoding — both
// monolithic (wpp2 vs wpp1) and chunked (wpc2 vs wpc1). It compares
// fresh builds, not the committed corpus, so regenerating the goldens
// cannot mask an encoder regression.
func TestV2NeverLargerOnBundledWorkloads(t *testing.T) {
	for _, name := range workloads.Names() {
		t.Run(name, func(t *testing.T) {
			built := buildGolden(t, name)
			if v1, v2 := len(built["wpp1"]), len(built["wpp2"]); v2 > v1 {
				t.Errorf("wpp2 encoding (%d bytes) larger than wpp1 (%d bytes)", v2, v1)
			}
			if v1, v2 := len(built["wpc1"]), len(built["wpc2"]); v2 > v1 {
				t.Errorf("wpc2 encoding (%d bytes) larger than wpc1 (%d bytes)", v2, v1)
			}
		})
	}
}

// TestGoldenRoundTrip decodes every committed golden artifact, whatever
// its format, verifies its structure, and re-encodes it at
// the version the decoder reported — the canonical re-encoding must
// reproduce the committed bytes exactly. This is the property the CLIs
// rely on to rewrite archives without touching their contents.
func TestGoldenRoundTrip(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading golden corpus (regenerate with -update): %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("golden corpus is empty")
	}
	for _, ent := range entries {
		t.Run(ent.Name(), func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			v, err := iwpp.NewView(data, nil)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			format := v.Format()
			a, err := iwpp.Decode(data)
			if err != nil {
				t.Fatalf("decode (%s): %v", format, err)
			}
			if err := a.Verify(1); err != nil {
				t.Fatalf("verify (%s): %v", format, err)
			}
			var buf bytes.Buffer
			if _, err := a.Encode(&buf); err != nil {
				t.Fatalf("re-encode (%s): %v", format, err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Errorf("%s: decode→re-encode does not reproduce the committed bytes (%d vs %d)",
					ent.Name(), buf.Len(), len(data))
			}
		})
	}
}
