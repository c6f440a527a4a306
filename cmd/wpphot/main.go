// wpphot reports the minimal hot subpaths of a .wpp artifact, analyzing
// the compressed grammar directly. All four containers are accepted:
// monolithic ("WPP1", "WPP2") and chunked ("WPC1", "WPC2", written by
// wppbuild -chunk), in either format version. The window count runs on
// -workers goroutines: chunked artifacts per chunk, and an artifact with
// fewer chunks than workers — a monolithic one always — split further
// into prefix shards, each counting the windows whose first -min events
// hash to it. The answers are identical at every worker count and to the
// monolithic analysis of the same trace.
//
// The artifact opens through the lazy mmap-backed view layer: chunk
// grammars materialize inside the per-chunk analysis pass and are
// discarded after counting, so peak memory tracks one chunk per worker
// instead of the whole decoded artifact. The wpp_open_* metrics on
// -debug-addr expose the open path (bytes mapped, chunks materialized,
// time to first result); the hotpath_* metrics expose the search's
// stages (per-chunk window count, chunk merge plus seam windows,
// harvest) and the number of distinct windows counted.
//
// The input may be a file path or a content-addressed store reference
// ("@<hash-prefix>" or "<workload>@<scale>", resolved through -store or
// $WPP_STORE).
//
// Usage:
//
//	wpphot [-min 4] [-max 16] [-threshold 0.01] [-top 20] [-scan] [-workers 0] file.wpp
//	wpphot -store dir expr@medium
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/hotpath"
	"repro/internal/obsv"
	"repro/internal/store"
	iwpp "repro/internal/wpp"
)

func main() {
	minLen := flag.Int("min", 4, "minimum subpath length (acyclic paths)")
	maxLen := flag.Int("max", 16, "maximum subpath length")
	threshold := flag.Float64("threshold", 0.01, "hotness threshold as a fraction of total cost")
	top := flag.Int("top", 20, "print at most this many subpaths")
	scan := flag.Bool("scan", false, "use the decompress-and-scan baseline instead of the grammar analysis (monolithic artifacts only)")
	workers := flag.Int("workers", 0, "goroutines counting windows: one per chunk, or per prefix shard when there are fewer chunks than workers, as in a monolithic artifact (0 = all cores)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address (e.g. :6060)")
	progress := flag.Duration("progress", 0, "emit a progress line to stderr at this interval (e.g. 1s)")
	storeDir := flag.String("store", "", "content-addressed store directory for @hash and name@scale inputs (default $WPP_STORE)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wpphot [flags] (file.wpp | @hash | workload@scale)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	reg := obsv.NewRegistry()
	met := hotpath.NewMetrics(reg)
	viewMet := iwpp.NewViewMetrics(reg)
	artifactBytes := reg.Counter("wpp_artifact_bytes_read_total")
	shutdown, err := obsv.Setup(reg, *debugAddr, "wpphot", *progress, os.Stderr)
	if err != nil {
		fatal(err)
	}
	defer shutdown()
	v, err := store.OpenViewInput(flag.Arg(0), store.DirFromFlag(*storeDir), viewMet)
	if err != nil {
		fatal(err)
	}
	defer v.Close()
	artifactBytes.Add(uint64(v.Size()))
	format := v.Format()
	opts := hotpath.Options{MinLen: *minLen, MaxLen: *maxLen, Threshold: *threshold, Metrics: met}
	var subs []hotpath.Subpath
	if *scan {
		// The decompress-and-scan baseline needs the whole monolithic
		// grammar resident; materialize it eagerly.
		w, err := v.WPP()
		if err != nil {
			if v.Chunked() {
				fatal(fmt.Errorf("-scan supports only monolithic artifacts"))
			}
			fatal(err)
		}
		subs, err = hotpath.FindByScan(w, opts)
		if err != nil {
			fatal(err)
		}
	} else {
		subs, err = hotpath.Find(v, opts, *workers)
		if err != nil {
			fatal(err)
		}
	}
	funcs, instrs := v.FuncTable(), v.TotalInstructions()
	fmt.Printf("%s, %d minimal hot subpaths (len %d..%d, threshold %.3f, total cost %d)\n",
		format, len(subs), *minLen, *maxLen, *threshold, instrs)
	for i, s := range subs {
		if i >= *top {
			fmt.Printf("... %d more\n", len(subs)-i)
			break
		}
		parts := make([]string, len(s.Events))
		for j, e := range s.Events {
			parts[j] = iwpp.EventName(funcs, e)
		}
		fmt.Printf("%3d. [%s] x%d cost=%d (%.2f%%)\n", i+1, strings.Join(parts, " "), s.Count, s.Cost, s.Fraction*100)
	}
	fmt.Printf("coverage (sum of fractions): %.2f\n", hotpath.Coverage(subs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wpphot:", err)
	os.Exit(1)
}
