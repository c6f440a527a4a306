package hotpath

import (
	"fmt"
	"testing"

	"repro/internal/workloads"
	"repro/internal/wpp"
)

// BenchmarkFindViewMono times FindView on monolithic WPP2 views of every
// monolithic artifact the hot-query benchmark stores (lexer, sort, bfs,
// queens, compress and expr), at wpphot's default options, on 1 and 2
// workers: on 2 each pass splits the view's single grammar into two parts
// of its rule bodies. A last row runs the medium-scale expr artifact at
// threshold 0.0005, the slowest of 0.01, 0.001, 0.0005 and 0.0001 on it:
// the search whose pass 2 walks the most windows. Each search opens its
// own view (findOpened).
func BenchmarkFindViewMono(b *testing.B) {
	for _, p := range []struct {
		label, name string
		arg         int64
		threshold   float64
	}{
		{"expr", "expr", 150, 0.01},
		{"sort", "sort", 7000, 0.01},
		{"bfs", "bfs", 450, 0.01},
		{"lexer", "lexer", 30000, 0.01},
		{"queens", "queens", 8, 0.01},
		{"compress", "compress", 1500, 0.01},
		{"expr-medium-threshold=0.0005", "expr", 1200, 0.0005},
	} {
		wl, err := workloads.ByName(p.name)
		if err != nil {
			b.Fatal(err)
		}
		w, _ := programBoth(b, wl.Source, 1<<40, p.arg)
		data := encodeAs(b, w, wpp.FormatV2)
		opts := Options{MinLen: 4, MaxLen: 16, Threshold: p.threshold}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", p.label, workers), func(b *testing.B) {
				findOpened(b, data, opts, workers)
				b.ReportMetric(float64(w.NumEvents())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mev/s")
			})
		}
	}
}

// BenchmarkFindViewChunked times FindView on chunked WPC2 views of bfs
// and lexer at 4096 events per chunk, at wpphot's default options, on 1
// and 2 workers: each chunk's window counts are added to one accumulator
// as the chunk finishes. Each search opens its own view (findOpened).
func BenchmarkFindViewChunked(b *testing.B) {
	opts := Options{MinLen: 4, MaxLen: 16, Threshold: 0.01}
	for _, p := range []struct {
		name string
		arg  int64
	}{{"bfs", 450}, {"lexer", 30000}} {
		wl, err := workloads.ByName(p.name)
		if err != nil {
			b.Fatal(err)
		}
		_, c := programBoth(b, wl.Source, 4096, p.arg)
		data := encodeAs(b, c, wpp.FormatV2)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", p.name, workers), func(b *testing.B) {
				findOpened(b, data, opts, workers)
				b.ReportMetric(float64(c.NumEvents())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mev/s")
			})
		}
	}
}

// findOpened runs b.N searches, each on a view it opens on data and
// closes, as wpphot and perfbench open one per query. A view holds its
// chunks' Analyses, so searches on one reused view would skip the
// decode, the Analysis and the window walk's rank tables after the
// first.
func findOpened(b *testing.B, data []byte, opts Options, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, err := wpp.NewView(data, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := FindView(v, opts, workers); err != nil {
			b.Fatal(err)
		}
		v.Close()
	}
}
