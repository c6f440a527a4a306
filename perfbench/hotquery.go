package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/engine"
	"repro/internal/hotpath"
	"repro/internal/obsv"
	"repro/internal/store"
	iwpp "repro/internal/wpp"
)

// The hot-query workload is the analysis and read path: set-up traces
// branchy programs once and stores their artifacts; the timed phase
// repeats open → hot-subpath search → path profile on the stored
// artifacts. engine and hotpath do nearly all of the work; wlc, interp
// and the SEQUITUR builder do none after set-up. sort and queens are the
// programs where the grammar search loses to the decompress-and-scan
// baseline (EXPERIMENTS.md E6). bfs is sized to be the slowest query by a
// clear margin, so the 90th latency percentile falls inside its cluster
// instead of between two programs whose order changes with the seed.
var hotPrograms = []program{
	{"lexer", 30000, 0},
	{"sort", 7000, 0},
	{"bfs", 450, 0},
	{"queens", 8, 0},
	{"compress", 1500, 0},
	{"expr", 150, 0},
}

// hotChunked names the program that is also stored as a WPC2 chunked
// artifact, the twin of its WPP2 artifact.
const hotChunked = "lexer"

// hotChunkSize is the chunked artifact's events per chunk.
const hotChunkSize = 4096

// hotOpts are the wpphot defaults.
var hotOpts = hotpath.Options{MinLen: 4, MaxLen: 16, Threshold: 0.01}

// hotRound is the nominal time of one query over every stored artifact.
const hotRound = 2600 * time.Millisecond

// hotArtifact is one stored artifact and the answers it must give.
type hotArtifact struct {
	label    string
	twin     string // label of a chunked artifact's monolithic twin
	hash     store.Hash
	events   uint64
	bytes    int
	rules    int
	wantSubs []hotpath.Subpath
	wantProf []hotpath.PathProfileEntry
}

// hotSetup is one set-up's state: the store and what is in it, plus the
// monolithic artifacts kept in memory for the oracles.
type hotSetup struct {
	st    *store.Store
	arts  []*hotArtifact
	monos map[string]*iwpp.WPP
}

func prepareHot(dir string, seed uint64) (*hotSetup, error) {
	st, err := store.Open(dir, nil)
	if err != nil {
		return nil, err
	}
	hs := &hotSetup{st: st, monos: map[string]*iwpp.WPP{}}
	for _, p := range hotPrograms {
		c, err := captureProgram(p, seed)
		if err != nil {
			return nil, err
		}
		chunks := []uint64{0}
		if p.name == hotChunked {
			chunks = append(chunks, hotChunkSize)
		}
		for _, chunk := range chunks {
			a, enc, err := buildV2(c, chunk)
			if err != nil {
				return nil, err
			}
			h, _, err := st.PutArtifactEncoded(a, enc)
			if err != nil {
				return nil, err
			}
			ha := &hotArtifact{label: p.String(), hash: h, events: a.NumEvents(), bytes: len(enc), rules: grammarRules(a)}
			if chunk > 0 {
				ha.twin = ha.label
				ha.label += "/wpc2"
			} else {
				hs.monos[ha.label] = a.(*iwpp.WPP)
			}
			hs.arts = append(hs.arts, ha)
		}
	}
	return hs, nil
}

func runHotQuery(cfg config, dir string, tr *tracer) (*report, error) {
	rep := &report{clients: 1, layers: map[string]metric{}}
	speed := newSpeedometer()
	n := 0
	var hs *hotSetup
	var err error
	rep.setup, err = repeatSetup(speed, func() (func(), error) {
		d := filepath.Join(dir, fmt.Sprintf("setup-%d", n))
		n++
		hs, err = prepareHot(d, cfg.seed)
		return func() { os.RemoveAll(d) }, err
	})
	if err != nil {
		return nil, err
	}

	// Oracles: the decompress-and-scan search on every monolithic
	// artifact; the chunked artifact must answer exactly as its twin.
	var scanMS []float64
	byLabel := map[string]*hotArtifact{}
	for _, a := range hs.arts {
		w, ok := hs.monos[a.label]
		if !ok {
			continue
		}
		start := time.Now()
		a.wantSubs, err = hotpath.FindByScan(w, hotOpts)
		if err != nil {
			return nil, err
		}
		scanMS = append(scanMS, ms(time.Since(start)))
		a.wantProf = hotpath.PathProfile(w)
		byLabel[a.label] = a
	}
	for _, a := range hs.arts {
		if twin := byLabel[a.twin]; twin != nil {
			a.wantSubs, a.wantProf = twin.wantSubs, twin.wantProf
		}
		rep.storedBytes += uint64(a.bytes)
		rep.storedKev += float64(a.events) / 1000
	}
	hs.monos = nil

	reg := obsv.NewRegistry()
	vm := iwpp.NewViewMetrics(reg)
	q := &hotQuerier{st: hs.st, rep: rep, speed: speed}
	// Warm-up: one untimed query on every artifact.
	for _, a := range hs.arts {
		q.query(a, nil, nil, -1)
	}

	nr := rounds(cfg, hotRound)
	budget := newRetryBudget(retries(cfg, nr*len(hs.arts)))
	speed.all = nil
	phase := beginTimedPhase()
	op := 0
	for r := 0; r < nr && time.Since(phase.start) < deadline(cfg); r++ {
		traced := cfg.trace && roundTraced(r)
		for _, a := range hs.arts {
			t := rep.timeOp(cfg.trace, traced, budget, func() opTime {
				if traced {
					return q.query(a, tr, vm, op)
				}
				return q.query(a, nil, nil, op)
			})
			rep.record(t, a.label, a.events)
			op++
		}
	}
	phase.end(rep, budget)
	rep.refs = speed.all

	if cfg.trace {
		var findMS []float64
		subs := 0
		for _, sp := range tr.spans {
			if sp.Name == "hotpath.find" {
				findMS = append(findMS, ms(sp.End-sp.Start))
				subs += int(sp.N)
			}
		}
		rules := 0
		for _, a := range hs.arts {
			rules += a.rules
		}
		set := func(name string, v float64, unit string) { rep.layers[name] = metric{v, unit} }
		set("hotpath.scan_ms", median(scanMS), "ms")
		if f := median(findMS); f > 0 {
			set("hotpath.vs_scan_x", median(scanMS)/f, "x")
		}
		set("hotpath.subpaths", float64(subs), "count")
		set("wpp.chunks_materialized", float64(vm.ChunksMaterialized.Value()), "count")
		set("sequitur.rules", float64(rules), "count")
		set("engine.windows_distinct", float64(q.windows), "count")
	}
	return rep, nil
}

// hotQuerier runs hot-query ops against one store.
type hotQuerier struct {
	st      *store.Store
	rep     *report
	speed   *speedometer
	windows uint64
}

// query is one op: open the stored artifact as a lazy view, find its hot
// subpaths and its path profile, then check both answers. tr is nil for
// untraced ops.
func (q *hotQuerier) query(a *hotArtifact, tr *tracer, vm *iwpp.ViewMetrics, op int) opTime {
	q.rep.attempted++
	clk := q.speed.startOp()
	root := tr.begin(op, -1, "op")
	s := tr.begin(op, root, "store.open_view")
	v, err := q.st.OpenView(a.hash, vm)
	tr.end(s)
	if err != nil {
		tr.end(root)
		q.rep.fail("%s: open: %v", a.label, err)
		return clk.stop()
	}
	find := tr.begin(op, root, "hotpath.find")
	subs, ferr := hotpath.FindView(v, hotOpts, buildWorkers)
	tr.endN(find, uint64(len(subs)))
	s = tr.begin(op, root, "hotpath.profile")
	prof, perr := hotpath.PathProfileView(v, buildWorkers)
	tr.end(s)
	v.Close()
	tr.end(root)
	t := clk.stop()
	switch {
	case ferr != nil:
		q.rep.fail("%s: find: %v", a.label, ferr)
	case perr != nil:
		q.rep.fail("%s: profile: %v", a.label, perr)
	case !reflect.DeepEqual(subs, a.wantSubs):
		q.rep.fail("%s: hot subpaths differ from the scan oracle (%d vs %d)", a.label, len(subs), len(a.wantSubs))
	case !reflect.DeepEqual(prof, a.wantProf):
		q.rep.fail("%s: path profile differs from the oracle", a.label)
	}
	if tr != nil {
		q.splitFind(a, tr, op, find)
	}
	return t
}

// splitFind re-runs, after the op, the engine calls FindView makes on
// each chunk — materialize the grammar, build its Analysis, count every
// window length — as shadow spans under the op's find span, so find's
// time splits into wpp, engine and hotpath's own harvest. FindView runs
// chunks on buildWorkers goroutines while the split runs them in turn, so
// on the chunked artifact the split can exceed find's wall time; the
// summary then scales it down to find's time (see summarize).
func (q *hotQuerier) splitFind(a *hotArtifact, tr *tracer, op, find int) {
	v, err := q.st.OpenView(a.hash, nil)
	if err != nil {
		q.rep.fail("%s: reopen: %v", a.label, err)
		return
	}
	defer v.Close()
	for i := 0; i < v.NumChunks(); i++ {
		s := tr.shadow(op, find, "wpp.materialize")
		sn, err := v.Chunk(i)
		tr.end(s)
		if err != nil {
			q.rep.fail("%s: chunk %d: %v", a.label, i, err)
			return
		}
		s = tr.shadow(op, find, "engine.analysis")
		an := engine.NewAnalysis(sn)
		tr.end(s)
		s = tr.shadow(op, find, "engine.count_windows")
		var distinct uint64
		for l := hotOpts.MinLen; l <= hotOpts.MaxLen; l++ {
			m := map[string]uint64{}
			an.CountWindows(l, m)
			distinct += uint64(len(m))
		}
		tr.endN(s, distinct)
		q.windows += distinct
	}
}
