// wppdiff compares two whole-program-path artifacts and reports the
// first point where the executions diverge — trace-based regression
// debugging from the command line (see examples/tracediff for the
// library-level version).
//
// Both artifact kinds are accepted, in any combination: inputs open
// through the lazy mmap-backed view layer, the event-level diff walks
// monolithic ("WPP1") and chunked ("WPC1") traces alike, and -spectrum
// compares path-frequency spectra chunk-parallel on either kind.
//
// Either input may be a file path or a content-addressed store
// reference ("@<hash-prefix>" or "<workload>@<scale>", resolved through
// -store or $WPP_STORE) — diffing a fresh run against a stored baseline
// needs no intermediate files.
//
// Usage:
//
//	wppdiff a.wpp b.wpp
//	wppdiff -store dir @1a2b3c4d expr@medium
//
// Exit status: 0 if the traces are identical, 1 if they differ, 2 on
// usage or read errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/hotpath"
	"repro/internal/store"
	"repro/internal/trace"
	iwpp "repro/internal/wpp"
)

// storeDir is the resolved store directory for ref inputs.
var storeDir string

func main() {
	verbose := flag.Bool("v", false, "print context events around the divergence")
	spectrum := flag.Bool("spectrum", false, "compare path-frequency spectra instead of event-by-event traces")
	top := flag.Int("top", 20, "with -spectrum, print at most this many differing paths")
	storeFlag := flag.String("store", "", "content-addressed store directory for @hash and name@scale inputs (default $WPP_STORE)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wppdiff [-v] [-spectrum [-top n]] [-store dir] (a.wpp | @hash | workload@scale) (b.wpp | @hash | workload@scale)\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	storeDir = store.DirFromFlag(*storeFlag)
	a, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer a.Close()
	b, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	defer b.Close()
	if *spectrum {
		diffSpectra(a, b, *top)
		return
	}

	var ea, eb []trace.Event
	if err := a.Walk(func(e trace.Event) bool { ea = append(ea, e); return true }); err != nil {
		fatal(err)
	}
	if err := b.Walk(func(e trace.Event) bool { eb = append(eb, e); return true }); err != nil {
		fatal(err)
	}

	n := len(ea)
	if len(eb) < n {
		n = len(eb)
	}
	diverge := -1
	for i := 0; i < n; i++ {
		if ea[i] != eb[i] {
			diverge = i
			break
		}
	}
	if diverge < 0 && len(ea) == len(eb) {
		fmt.Printf("identical: %d events\n", len(ea))
		return
	}
	if diverge < 0 {
		diverge = n
	}
	fmt.Printf("traces diverge at event %d of %d/%d\n", diverge, len(ea), len(eb))
	fmt.Printf("  %s (%s): %s\n", flag.Arg(0), a.Format(), render(a, ea, diverge))
	fmt.Printf("  %s (%s): %s\n", flag.Arg(1), b.Format(), render(b, eb, diverge))
	if *verbose {
		lo := diverge - 5
		if lo < 0 {
			lo = 0
		}
		fmt.Println("context:")
		for i := lo; i < diverge; i++ {
			fmt.Printf("  %6d  %s\n", i, render(a, ea, i))
		}
	}
	os.Exit(1)
}

// diffSpectra compares path-frequency spectra and exits 1 on difference.
// The comparison runs chunk-parallel over both views, so chunked
// artifacts diff without decoding either whole grammar set.
func diffSpectra(a, b *iwpp.ArtifactView, top int) {
	d, err := hotpath.CompareSpectra(a, b, 0)
	if err != nil {
		fatal(err)
	}
	if d.Identical() {
		fmt.Printf("identical spectra: %d distinct paths\n", d.TotalPaths)
		return
	}
	funcs := a.FuncTable()
	fmt.Printf("%d of %d distinct paths differ (%d shared)\n", len(d.Entries), d.TotalPaths, d.SharedPaths)
	for i, e := range d.Entries {
		if i >= top {
			fmt.Printf("... %d more\n", len(d.Entries)-i)
			break
		}
		tag := ""
		if e.OnlyA {
			tag = "  (only in A)"
		} else if e.OnlyB {
			tag = "  (only in B)"
		}
		fmt.Printf("  %-20s %10d vs %-10d%s\n", iwpp.EventName(funcs, e.Event), e.CountA, e.CountB, tag)
	}
	os.Exit(1)
}

func load(path string) (*iwpp.ArtifactView, error) {
	v, err := store.OpenViewInput(path, storeDir, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

func render(v *iwpp.ArtifactView, events []trace.Event, i int) string {
	if i >= len(events) {
		return "<end of trace>"
	}
	return iwpp.EventName(v.FuncTable(), events[i])
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wppdiff:", err)
	os.Exit(2)
}
