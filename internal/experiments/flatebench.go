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
	"time"

	iwpp "repro/internal/wpp"
)

// FlateBenchSchema identifies the result format (the flate table is
// derived entirely from the committed golden corpus, so it is printed
// rather than persisted, but the schema tags the JSON if a caller
// serializes it anyway).
const FlateBenchSchema = "wpp/flatebench/v1"

// FlateBenchRow compares one golden artifact pair (v1 vs v2 encoding of
// the same grammar).
type FlateBenchRow struct {
	Name string `json:"name"`
	// Pair is "mono" (wpp1 vs wpp2) or "chunked" (wpc1 vs wpc2).
	Pair    string `json:"pair"`
	V1Bytes int64  `json:"v1_bytes"`
	V1Gzip  int64  `json:"v1_gzip_bytes"`
	V2Bytes int64  `json:"v2_bytes"`
	V2Gzip  int64  `json:"v2_gzip_bytes"`
	Events  uint64 `json:"events"`
	// V2DecodeMS times the native v2 decoder; V1GunzipDecodeMS times the
	// alternative pipeline (gunzip the compressed v1 stream, then decode
	// it). Both are best-of-reps on in-memory buffers.
	V2DecodeMS       float64 `json:"v2_decode_ms"`
	V1GunzipDecodeMS float64 `json:"v1_gunzip_decode_ms"`
}

// FlateBenchResult is the full comparison.
type FlateBenchResult struct {
	Schema string          `json:"schema"`
	Reps   int             `json:"reps"`
	Rows   []FlateBenchRow `json:"rows"`
}

// FlateBench runs the comparison over every v1/v2 artifact pair in dir
// (the golden corpus layout: <name>.wpp1/<name>.wpp2 and
// <name>.wpc1/<name>.wpc2).
func FlateBench(dir string, reps int) (*FlateBenchResult, *Table, error) {
	if reps < 1 {
		reps = 1
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
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
		return nil, nil, fmt.Errorf("flatebench: no v1/v2 artifact pairs in %s", dir)
	}

	res := &FlateBenchResult{Schema: FlateBenchSchema, Reps: reps}
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
				return nil, nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, res.Table(), nil
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

	var bestV2, bestV1 time.Duration
	for i := 0; i < reps; i++ {
		var a iwpp.Artifact
		d2 := timeOnce(func() {
			a, err = iwpp.Decode(v2)
		})
		if err != nil {
			return row, fmt.Errorf("flatebench %s%s: %w", stem, extV2, err)
		}
		row.Events = a.NumEvents()
		d1 := timeOnce(func() {
			var zr *gzip.Reader
			zr, err = gzip.NewReader(bytes.NewReader(v1gz))
			if err != nil {
				return
			}
			var raw []byte
			raw, err = io.ReadAll(zr)
			if err != nil {
				return
			}
			_, err = iwpp.Decode(raw)
		})
		if err != nil {
			return row, fmt.Errorf("flatebench %s%s.gz: %w", stem, extV1, err)
		}
		if i == 0 || d2 < bestV2 {
			bestV2 = d2
		}
		if i == 0 || d1 < bestV1 {
			bestV1 = d1
		}
	}
	row.V2DecodeMS = 1e3 * bestV2.Seconds()
	row.V1GunzipDecodeMS = 1e3 * bestV1.Seconds()
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

// Table renders the comparison.
func (r *FlateBenchResult) Table() *Table {
	tbl := &Table{
		ID:     "C2",
		Title:  fmt.Sprintf("v2 varint codecs vs gzip'd v1 encodings, golden corpus (best of %d)", r.Reps),
		Header: []string{"artifact", "pair", "v1", "v1.gz", "v2", "v2.gz", "v2/v1.gz", "v2 dec ms", "v1.gz dec ms"},
		Notes: []string{
			"v2/v1.gz < 1 means the varint layer beats general-purpose compression of the naive encoding on size alone",
			"decode columns compare the deployable read paths: native v2 decode vs gunzip-then-decode of stored v1.gz",
			"gzip at BestCompression; sizes are whole files from the committed golden corpus",
		},
	}
	for _, w := range r.Rows {
		ratio := "n/a"
		if w.V1Gzip > 0 {
			ratio = fmt.Sprintf("%.3f", float64(w.V2Bytes)/float64(w.V1Gzip))
		}
		tbl.Rows = append(tbl.Rows, []string{
			w.Name, w.Pair,
			fmt.Sprintf("%d", w.V1Bytes),
			fmt.Sprintf("%d", w.V1Gzip),
			fmt.Sprintf("%d", w.V2Bytes),
			fmt.Sprintf("%d", w.V2Gzip),
			ratio,
			fmt.Sprintf("%.3f", w.V2DecodeMS),
			fmt.Sprintf("%.3f", w.V1GunzipDecodeMS),
		})
	}
	return tbl
}
