package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/interp"
	"repro/internal/obsv"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wlc"
	iwpp "repro/internal/wpp"
)

// The collect workload is the write path, op by op what `wppbuild
// -store` does: source text → compile → traced run → SEQUITUR build →
// WPP2 encode → store put, then a reopen that checks what was stored.
// interp and the builder dominate; hotpath is never called. matrix and
// sim give regular traces (few rules, mostly digram hits); hash, compress
// and lexer keep creating and retiring rules. How well those three
// compress varies up to 9% from seed to seed, so each runs as two
// half-size variants with their own input data.
var collectPrograms = []program{
	{"matrix", 40, 0},
	{"sim", 120000, 0},
	{"hash", 12500, 0},
	{"hash", 12500, 1},
	{"compress", 1250, 0},
	{"compress", 1250, 1},
	{"lexer", 15000, 0},
	{"lexer", 15000, 1},
}

// collectRound is the nominal time of one op per program.
const collectRound = 470 * time.Millisecond

// collectWant is what one program's op must produce on every repeat.
type collectWant struct {
	hash   store.Hash
	events uint64
	result int64
	bytes  int
}

// collector runs collect ops. Its capture buffer and encode buffer are
// reused across ops so the timed phase works on warm pages.
type collector struct {
	sources map[string]string
	buf     trace.Buffer
	enc     bytes.Buffer
	rep     *report
	speed   *speedometer
	// tracedRun marks a run whose odd rounds are traced.
	tracedRun bool
	// rules and encoded count the traced ops' grammars and bytes.
	rules   int
	encoded int
}

func runCollect(cfg config, dir string, tr *tracer) (*report, error) {
	rep := &report{clients: 1, layers: map[string]metric{}}
	c := &collector{sources: map[string]string{}, rep: rep, speed: newSpeedometer(), tracedRun: cfg.trace}
	for _, p := range collectPrograms {
		src, err := seededSource(p, cfg.seed)
		if err != nil {
			return nil, err
		}
		c.sources[p.String()] = src
	}
	// Set-up is the cold first collection of every program into a fresh
	// store; its results are what every later op must reproduce.
	var want map[string]collectWant
	n := 0
	var err error
	rep.setup, err = repeatSetup(c.speed, func() (func(), error) {
		d := filepath.Join(dir, fmt.Sprintf("setup-%d", n))
		n++
		st, err := store.Open(d, nil)
		if err != nil {
			return nil, err
		}
		got := map[string]collectWant{}
		for _, p := range collectPrograms {
			w, err := c.collect(p, st, nil, nil, 0)
			if err != nil {
				return nil, err
			}
			got[p.String()] = w
			if want != nil && want[p.String()] != w {
				rep.fail("%s: set-up repeat stored a different artifact", p)
			}
		}
		want = got
		return func() { os.RemoveAll(d) }, nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range collectPrograms {
		rep.storedBytes += uint64(want[p.String()].bytes)
		rep.storedKev += float64(want[p.String()].events) / 1000
	}

	reg := obsv.NewRegistry()
	sm := store.NewMetrics(reg)
	vm := iwpp.NewViewMetrics(reg)
	nr := rounds(cfg, collectRound)
	// Warm-up: one untimed round into its own store.
	if err := c.round(filepath.Join(dir, "warm"), want, nil, nil, nil, nil, -1); err != nil {
		return nil, err
	}
	budget := newRetryBudget(retries(cfg, nr*len(collectPrograms)))
	c.speed.all = nil
	phase := beginTimedPhase()
	for r := 0; r < nr && time.Since(phase.start) < deadline(cfg); r++ {
		d := filepath.Join(dir, fmt.Sprintf("round-%d", r))
		var err error
		if cfg.trace && roundTraced(r) {
			err = c.round(d, want, tr, sm, vm, budget, r*len(collectPrograms))
		} else {
			err = c.round(d, want, nil, nil, nil, budget, r*len(collectPrograms))
		}
		if err != nil {
			return nil, err
		}
	}
	phase.end(rep, budget)
	rep.refs = c.speed.all

	if cfg.trace {
		set := func(name string, v float64, unit string) { rep.layers[name] = metric{v, unit} }
		x, err := traceOverhead(c.sources)
		if err != nil {
			return nil, err
		}
		set("interp.trace_overhead_x", x, "x")
		set("sequitur.rules", float64(c.rules), "count")
		set("wpp.encoded_bytes", float64(c.encoded), "bytes")
		set("store.objects_written", float64(sm.ObjectsWritten.Value()), "count")
		set("store.objects_reused", float64(sm.ObjectsDeduped.Value()), "count")
		set("wpp.chunks_materialized", float64(vm.ChunksMaterialized.Value()), "count")
	}
	return rep, nil
}

// round collects every program once into a fresh store at dir, so each
// round writes its objects rather than finding them already stored. A
// nil budget marks the untimed warm-up round.
func (c *collector) round(dir string, want map[string]collectWant, tr *tracer, sm *store.Metrics, vm *iwpp.ViewMetrics, budget *retryBudget, op0 int) error {
	st, err := store.Open(dir, sm)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for i, p := range collectPrograms {
		run := func() opTime {
			c.rep.attempted++
			clk := c.speed.startOp()
			got, err := c.collect(p, st, tr, vm, op0+i)
			t := clk.stop()
			switch {
			case err != nil:
				c.rep.fail("%s: %v", p, err)
			case got != want[p.String()]:
				c.rep.fail("%s: stored artifact %s (%d events, result %d), want %s (%d events, result %d)",
					p, got.hash, got.events, got.result, want[p.String()].hash, want[p.String()].events, want[p.String()].result)
			}
			if tr != nil {
				c.encoded += got.bytes
			}
			return t
		}
		if budget == nil {
			run()
			continue
		}
		c.rep.record(c.rep.timeOp(c.tracedRun, tr != nil, budget, run), p.String(), want[p.String()].events)
	}
	return nil
}

// collect is one op: one program from source text to a stored,
// reopened artifact.
func (c *collector) collect(p program, st *store.Store, tr *tracer, vm *iwpp.ViewMetrics, op int) (collectWant, error) {
	root := tr.begin(op, -1, "op")
	defer tr.end(root)

	s := tr.begin(op, root, "wlc.compile")
	prog, err := wlc.Compile(c.sources[p.String()])
	tr.end(s)
	if err != nil {
		return collectWant{}, err
	}
	s = tr.begin(op, root, "interp.new")
	c.buf.Events = c.buf.Events[:0]
	m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: &c.buf})
	tr.end(s)
	if err != nil {
		return collectWant{}, err
	}
	s = tr.begin(op, root, "interp.run")
	res, err := m.Run("main", p.arg)
	events := m.Stats().Events
	tr.endN(s, events)
	if err != nil {
		return collectWant{}, err
	}

	s = tr.begin(op, root, "wpp.build")
	b := iwpp.New(funcNames(prog), m.Numberings(), iwpp.BuildOptions{})
	feed(b, c.buf.Events)
	a := b.Finish(m.Stats().Instructions)
	tr.endN(s, a.NumEvents())
	if tr != nil {
		c.rules += grammarRules(a)
	}

	s = tr.begin(op, root, "wpp.encode")
	iwpp.SetVersion(a, iwpp.FormatV2)
	c.enc.Reset()
	_, err = a.Encode(&c.enc)
	tr.end(s)
	if err != nil {
		return collectWant{}, err
	}

	s = tr.begin(op, root, "store.put")
	h, _, err := st.PutArtifactBytes(c.enc.Bytes())
	tr.end(s)
	if err != nil {
		return collectWant{}, err
	}

	s = tr.begin(op, root, "store.open_view")
	v, err := st.OpenView(h, vm)
	if err == nil {
		if v.NumEvents() != events || v.Size() != int64(c.enc.Len()) {
			err = fmt.Errorf("reopened artifact has %d events and %d bytes, stored %d and %d", v.NumEvents(), v.Size(), events, c.enc.Len())
		}
		v.Close()
	}
	tr.end(s)
	if err != nil {
		return collectWant{}, err
	}
	return collectWant{hash: h, events: events, result: res, bytes: c.enc.Len()}, nil
}

// traceOverhead is the paper's collection-overhead number: the time of a
// path-traced run into a capture buffer over the time of a plain run,
// with the two interleaved program by program, summed over three
// repetitions of the program mix.
func traceOverhead(sources map[string]string) (float64, error) {
	var plain, traced time.Duration
	var buf trace.Buffer
	for rep := 0; rep < 3; rep++ {
		for _, p := range collectPrograms {
			prog, err := wlc.Compile(sources[p.String()])
			if err != nil {
				return 0, err
			}
			for _, mode := range []interp.Mode{interp.NoTrace, interp.PathTrace} {
				buf.Events = buf.Events[:0]
				icfg := interp.Config{Mode: mode}
				if mode == interp.PathTrace {
					icfg.Sink = &buf
				}
				m, err := interp.New(prog, icfg)
				if err != nil {
					return 0, err
				}
				start := time.Now()
				if _, err := m.Run("main", p.arg); err != nil {
					return 0, err
				}
				if mode == interp.PathTrace {
					traced += time.Since(start)
				} else {
					plain += time.Since(start)
				}
			}
		}
	}
	return traced.Seconds() / plain.Seconds(), nil
}
