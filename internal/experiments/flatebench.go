package experiments

// FlateBench answers the design question behind the v2 codecs with a
// measurement instead of an assertion: is the hand-rolled varint layer
// actually better than pointing a general-purpose compressor at the
// naive v1 fixed-width encoding? For every artifact in the golden
// corpus it gzips the v1 and v2 bytes, then times decoding the native
// v2 stream against gunzip-plus-decode of the v1 stream — the two
// deployable alternatives. The committed numbers live in EXPERIMENTS.md
// (table C2); this bench regenerates them from the pinned corpus, so
// they move only when a codec does.

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	iwpp "repro/internal/wpp"
)

// FlateBenchRow compares one golden artifact pair (v1 vs v2 encoding of
// the same grammar).
type FlateBenchRow struct {
	Name string
	// Pair is "mono" (wpp1 vs wpp2) or "chunked" (wpc1 vs wpc2).
	Pair    string
	V1Bytes int64
	V1Gzip  int64
	V2Bytes int64
	V2Gzip  int64
	Events  uint64
	// V2DecodeMS times the native v2 decoder; V1GunzipDecodeMS times the
	// alternative pipeline (gunzip the compressed v1 stream, then decode
	// it). Both are best-of-reps on in-memory buffers.
	V2DecodeMS       float64
	V1GunzipDecodeMS float64
}

// FlateLayout is table C2. It is derived entirely from the committed
// golden corpus, so it is printed and never kept as a trajectory.
var FlateLayout = Layout[FlateBenchRow]{
	ID: "C2",
	Title: func(t *Trajectory[FlateBenchRow]) string {
		return fmt.Sprintf("v2 varint codecs vs gzip'd v1 encodings, golden corpus (best of %s)", t.Config["reps"])
	},
	Notes: func(*Trajectory[FlateBenchRow]) []string {
		return []string{
			"v2/v1.gz < 1 means the varint layer beats general-purpose compression of the naive encoding on size alone",
			"decode columns compare the deployable read paths: native v2 decode vs gunzip-then-decode of stored v1.gz",
			"gzip at BestCompression; sizes are whole files from the committed golden corpus",
		}
	},
	Columns: []Column[FlateBenchRow]{
		text("artifact", func(r FlateBenchRow) string { return r.Name }),
		text("pair", func(r FlateBenchRow) string { return r.Pair }),
		num("v1", "%.0f", func(r FlateBenchRow) float64 { return float64(r.V1Bytes) }),
		num("v1.gz", "%.0f", func(r FlateBenchRow) float64 { return float64(r.V1Gzip) }),
		num("v2", "%.0f", func(r FlateBenchRow) float64 { return float64(r.V2Bytes) }),
		num("v2.gz", "%.0f", func(r FlateBenchRow) float64 { return float64(r.V2Gzip) }),
		text("v2/v1.gz", func(r FlateBenchRow) string { return sizeRatio(r.V2Bytes, r.V1Gzip) }),
		num("v2 dec ms", "%.3f", func(r FlateBenchRow) float64 { return r.V2DecodeMS }),
		num("v1.gz dec ms", "%.3f", func(r FlateBenchRow) float64 { return r.V1GunzipDecodeMS }),
	},
}

// FlateBench runs the comparison over every v1/v2 artifact pair in dir
// (the golden corpus layout: <name>.wpp1/<name>.wpp2 and
// <name>.wpc1/<name>.wpc2).
func FlateBench(dir string, reps int) (*Trajectory[FlateBenchRow], error) {
	reps = max(reps, 1)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Collect stems that have both generations of a pair.
	byFile := map[string]bool{}
	var stems []string
	for _, e := range entries {
		byFile[e.Name()] = true
	}
	for name := range byFile {
		if stem, ok := strings.CutSuffix(name, ".wpp1"); ok && byFile[stem+".wpp2"] {
			stems = append(stems, stem)
		}
	}
	sort.Strings(stems)
	if len(stems) == 0 {
		return nil, fmt.Errorf("flatebench: no v1/v2 artifact pairs in %s", dir)
	}

	res := &Trajectory[FlateBenchRow]{Config: map[string]string{"reps": fmt.Sprint(reps)}}
	for _, stem := range stems {
		for _, pair := range []struct{ kind, v1, v2 string }{
			{"mono", ".wpp1", ".wpp2"},
			{"chunked", ".wpc1", ".wpc2"},
		} {
			if !byFile[stem+pair.v1] || !byFile[stem+pair.v2] {
				continue
			}
			row, err := flateRow(dir, stem, pair.kind, pair.v1, pair.v2, reps)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func flateRow(dir, stem, kind, extV1, extV2 string, reps int) (FlateBenchRow, error) {
	row := FlateBenchRow{Name: stem, Pair: kind}
	v1, err := os.ReadFile(filepath.Join(dir, stem+extV1))
	if err != nil {
		return row, err
	}
	v2, err := os.ReadFile(filepath.Join(dir, stem+extV2))
	if err != nil {
		return row, err
	}
	row.V1Bytes, row.V2Bytes = int64(len(v1)), int64(len(v2))
	v1gz, err := gzipBytes(v1)
	if err != nil {
		return row, err
	}
	v2gz, err := gzipBytes(v2)
	if err != nil {
		return row, err
	}
	row.V1Gzip, row.V2Gzip = int64(len(v1gz)), int64(len(v2gz))

	best, err := bestOf(reps, func() error {
		a, err := iwpp.Decode(v2)
		if err != nil {
			return fmt.Errorf("flatebench %s%s: %w", stem, extV2, err)
		}
		row.Events = a.NumEvents()
		return nil
	}, func() error {
		zr, err := gzip.NewReader(bytes.NewReader(v1gz))
		if err == nil {
			var raw []byte
			if raw, err = io.ReadAll(zr); err == nil {
				_, err = iwpp.Decode(raw)
			}
		}
		if err != nil {
			return fmt.Errorf("flatebench %s%s.gz: %w", stem, extV1, err)
		}
		return nil
	})
	if err != nil {
		return row, err
	}
	row.V2DecodeMS = 1e3 * best[0].Seconds()
	row.V1GunzipDecodeMS = 1e3 * best[1].Seconds()
	return row, nil
}

func gzipBytes(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(data); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
