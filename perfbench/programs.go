package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"regexp"
	"strconv"

	"repro/internal/bl"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// program is one bundled WL workload at a fixed scale argument. Variants
// of one program differ only in the input data their seed generates.
type program struct {
	name    string
	arg     int64
	variant int
}

func (p program) String() string {
	if p.variant > 0 {
		return fmt.Sprintf("%s/%d#%d", p.name, p.arg, p.variant)
	}
	return fmt.Sprintf("%s/%d", p.name, p.arg)
}

// lcgInit matches the one statement that seeds a workload's in-language
// LCG (st[0] = <literal>;). Workloads without it (queens) have no
// pseudo-random input and run unchanged.
var lcgInit = regexp.MustCompile(`st\[0\] = \d+;`)

// seededSource returns p's source text with its LCG seed replaced by a
// value derived from seed, the program name and the variant, so every
// seed gives the program different but reproducible input data.
func seededSource(p program, seed uint64) (string, error) {
	w, err := workloads.ByName(p.name)
	if err != nil {
		return "", err
	}
	if n := len(lcgInit.FindAllStringIndex(w.Source, -1)); n > 1 {
		return "", fmt.Errorf("%s: %d LCG initialisations, want at most 1", p.name, n)
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s#%d", p.name, p.variant)
	lit := splitmix64(seed^h.Sum64())>>2 | 1
	return lcgInit.ReplaceAllLiteralString(w.Source, "st[0] = "+strconv.FormatUint(lit, 10)+";"), nil
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// capture is one traced run of a seeded program held in memory.
type capture struct {
	prog         program
	names        []string
	nums         []*bl.Numbering
	events       []trace.Event
	instructions uint64
	result       int64
}

// captureProgram compiles p's seeded source and runs it under path
// tracing into a buffer.
func captureProgram(p program, seed uint64) (*capture, error) {
	src, err := seededSource(p, seed)
	if err != nil {
		return nil, err
	}
	prog, err := wlc.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	buf := &trace.Buffer{}
	m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: buf})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	res, err := m.Run("main", p.arg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	return &capture{
		prog:         p,
		names:        funcNames(prog),
		nums:         m.Numberings(),
		events:       buf.Events,
		instructions: m.Stats().Instructions,
		result:       res,
	}, nil
}

func funcNames(prog *wlc.Program) []string {
	names := make([]string, len(prog.Funcs))
	for i, f := range prog.Funcs {
		names[i] = f.Name
	}
	return names
}

// emitBatch is the slice size events are fed to builders in: the
// interpreter's own emission batch and the ingest frame size.
const emitBatch = 4096

// buildWorkers bounds the chunked builders' and folds' worker pools at
// the core count of the machine the benchmark is sized for.
const buildWorkers = 2

// feed adds events to b in emitBatch-sized slices, as the interpreter's
// batched emission would.
func feed(b iwpp.Builder, events []trace.Event) {
	for len(events) > 0 {
		n := min(len(events), emitBatch)
		b.AddBatch(events[:n])
		events = events[n:]
	}
}

// buildV2 builds a WPP2 (chunk == 0) or WPC2 artifact from a capture and
// returns it with its encoding.
func buildV2(c *capture, chunk uint64) (iwpp.Artifact, []byte, error) {
	b := iwpp.New(c.names, c.nums, iwpp.BuildOptions{ChunkSize: chunk, Workers: buildWorkers})
	feed(b, c.events)
	a := b.Finish(c.instructions)
	iwpp.SetVersion(a, iwpp.FormatV2)
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		return nil, nil, fmt.Errorf("%s: encode: %w", c.prog, err)
	}
	return a, buf.Bytes(), nil
}

// grammarRules counts the SEQUITUR rules behind an artifact.
func grammarRules(a iwpp.Artifact) int {
	switch t := a.(type) {
	case *iwpp.WPP:
		return len(t.Grammar.Rules)
	case *iwpp.ChunkedWPP:
		n := 0
		for _, ch := range t.Chunks {
			n += len(ch.Rules)
		}
		return n
	}
	return 0
}
