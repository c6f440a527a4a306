package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hotpath"
	"repro/internal/obsv"
	"repro/internal/serve"
	"repro/internal/store"
	iwpp "repro/internal/wpp"
)

// The ingest workload is the builder, codec and store layers used online
// and concurrently: an in-process daemon on loopback with store
// write-through, and ingestClients clients that each stream a captured
// trace in emitBatch-event frames into a chunked WPP2 session, seal it
// and query its sealed hot subpaths. It is the only workload through
// serve's framing and validation, the parallel chunked builder, the
// boundary-window fold and store dedup on repeated puts. The unit op is
// a session: a frame takes under a millisecond. matrix is a regular
// trace whose sealed query stays a minority of the session, and its
// control flow does not depend on its data, so every seed gives the
// daemon the same work. sim, the other regular trace, was dropped: how
// big and how compressible its randomly generated program is varies
// twofold to threefold from seed to seed. Three sizes keep the latency
// median and 90th percentile inside one size's cluster each.
var ingestPrograms = []program{
	{"matrix", 20, 0},
	{"matrix", 24, 0},
	{"matrix", 28, 0},
}

const (
	ingestClients = 2
	ingestChunk   = 4096
)

// ingestQuery is the sealed hot-subpath query: wpphot's minimum length
// and threshold with windows up to 8 paths, which keeps the query a
// minority of the session (up to 16 it is about half).
var ingestQuery = serve.HotQuery{MinLen: 4, MaxLen: 8, Threshold: 0.01}

// ingestRound is the nominal time of one session per program.
const ingestRound = 130 * time.Millisecond

// ingestCapture is one program's trace ready to replay, with the answers
// its session must give.
type ingestCapture struct {
	c       *capture
	frames  [][]byte
	counts  []uint64 // events per frame
	wantSHA string
	wantHot []serve.HotSubpath
	bytes   int
	rules   int
}

// daemon is an in-process wppd on a loopback port.
type daemon struct {
	srv       *serve.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	client    *serve.Client
}

func startDaemon(dir string, met *serve.Metrics, sm *store.Metrics) (*daemon, error) {
	st, err := store.Open(dir, sm)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:       serve.New(serve.Config{Store: st, Metrics: met}),
		served:    make(chan error, 1),
		transport: &http.Transport{MaxIdleConnsPerHost: ingestClients, DisableCompression: true},
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.client = &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: d.transport}}
	return d, nil
}

// close stops the listener, waits for Serve to return, and releases
// every session and idle connection.
func (d *daemon) close() {
	d.hs.Close()
	<-d.served
	d.srv.Close()
	d.transport.CloseIdleConnections()
}

func runIngest(cfg config, dir string, tr *tracer) (*report, error) {
	rep := &report{clients: ingestClients, layers: map[string]metric{}}
	var met *serve.Metrics
	var sm *store.Metrics
	if cfg.trace {
		reg := obsv.NewRegistry()
		met = serve.NewMetrics(reg)
		sm = store.NewMetrics(reg)
	}
	// Set-up starts a fresh daemon and captures every program.
	var d *daemon
	var caps []*ingestCapture
	n := 0
	var err error
	rep.setup, err = repeatSetup(newSpeedometer(), func() (func(), error) {
		sd := filepath.Join(dir, fmt.Sprintf("setup-%d", n))
		n++
		var err error
		if d, err = startDaemon(sd, met, sm); err != nil {
			return nil, err
		}
		dd := d
		cleanup := func() { dd.close(); os.RemoveAll(sd) }
		caps = caps[:0]
		for _, p := range ingestPrograms {
			c, err := captureProgram(p, cfg.seed)
			if err != nil {
				return cleanup, err
			}
			ic := &ingestCapture{c: c}
			for ev := c.events; len(ev) > 0; {
				k := min(len(ev), emitBatch)
				ic.frames = append(ic.frames, serve.EncodeFrame(ev[:k]))
				ic.counts = append(ic.counts, uint64(k))
				ev = ev[k:]
			}
			caps = append(caps, ic)
		}
		return cleanup, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.close()

	// Oracles: a local chunked build of each capture gives the sealed
	// artifact's SHA-256 and its hot subpaths.
	for _, ic := range caps {
		a, enc, err := buildV2(ic.c, ingestChunk)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(enc)
		ic.wantSHA = hex.EncodeToString(sum[:])
		ic.bytes = len(enc)
		ic.rules = grammarRules(a)
		opts := hotpath.Options{MinLen: ingestQuery.MinLen, MaxLen: ingestQuery.MaxLen, Threshold: ingestQuery.Threshold}
		subs, err := hotpath.FindChunked(a.(*iwpp.ChunkedWPP), opts, buildWorkers)
		if err != nil {
			return nil, err
		}
		if len(subs) > 20 { // the daemon's default k
			subs = subs[:20]
		}
		for _, s := range subs {
			raw := make([]uint64, len(s.Events))
			for i, e := range s.Events {
				raw[i] = uint64(e)
			}
			ic.wantHot = append(ic.wantHot, serve.HotSubpath{Raw: raw, Count: s.Count, Cost: s.Cost, Fraction: s.Fraction})
		}
		rep.storedBytes += uint64(ic.bytes)
		rep.storedKev += float64(len(ic.c.events)) / 1000
	}

	// Warm-up: one untimed session per program.
	warm := &ingestClient{d: d, speed: newSpeedometer()}
	for i, ic := range caps {
		warm.session(ic, nil, -1-i)
	}
	rep.attempted, rep.failed = warm.attempted, warm.failed

	total := rounds(cfg, ingestRound) * len(caps)
	budget := newRetryBudget(retries(cfg, total))
	var next atomic.Int64
	clients := make([]*ingestClient, ingestClients)
	// Daemon-side counters cover the timed phase only.
	var buildBefore time.Duration
	var writtenBefore, reusedBefore uint64
	if met != nil {
		buildBefore = met.Build.ChunkCompress.Sum()
		writtenBefore, reusedBefore = sm.ObjectsWritten.Value(), sm.ObjectsDeduped.Value()
	}
	phase := beginTimedPhase()
	var wg sync.WaitGroup
	for i := range clients {
		cl := &ingestClient{d: d, speed: newSpeedometer(), rep: &report{}}
		clients[i] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= total || time.Since(phase.start) > deadline(cfg) {
					return
				}
				ic := caps[j%len(caps)]
				traced := cfg.trace && roundTraced(j/len(caps))
				t := cl.rep.timeOp(cfg.trace, traced, budget, func() opTime {
					if traced {
						return cl.session(ic, tr, j)
					}
					return cl.session(ic, nil, j)
				})
				cl.rep.record(t, ic.c.prog.String(), uint64(len(ic.c.events)))
			}
		}()
	}
	wg.Wait()
	phase.end(rep, budget)

	refused, encoded := 0, 0
	for _, cl := range clients {
		rep.lat = append(rep.lat, cl.rep.lat...)
		rep.latOf = append(rep.latOf, cl.rep.latOf...)
		rep.opTime += cl.rep.opTime
		rep.wallOpTime += cl.rep.wallOpTime
		rep.refs = append(rep.refs, cl.speed.all...)
		rep.events += cl.rep.events
		rep.attempted += cl.attempted
		rep.failed += cl.failed
		rep.tracedLat += cl.rep.tracedLat
		rep.untracedLat += cl.rep.untracedLat
		refused += cl.refused
		encoded += cl.encoded
	}
	if cfg.trace {
		set := func(name string, v float64, unit string) { rep.layers[name] = metric{v, unit} }
		rules := 0
		for _, ic := range caps {
			rules += ic.rules
		}
		set("wpp.chunked_build_s", (met.Build.ChunkCompress.Sum() - buildBefore).Seconds(), "s")
		set("wpp.encoded_bytes", float64(encoded), "bytes")
		set("sequitur.rules", float64(rules), "count")
		set("store.objects_written", float64(sm.ObjectsWritten.Value()-writtenBefore), "count")
		set("store.objects_reused", float64(sm.ObjectsDeduped.Value()-reusedBefore), "count")
		set("serve.refused", float64(refused), "count")
	}
	return rep, nil
}

// ingestClient is one closed-loop client; only its own goroutine touches
// its fields until the timed phase ends.
type ingestClient struct {
	d         *daemon
	speed     *speedometer
	rep       *report // this client's timed sessions
	attempted int
	failed    int
	refused   int
	encoded   int
}

func (cl *ingestClient) fail(err error, format string, args ...any) {
	cl.failed++
	var se *serve.StatusError
	if errors.As(err, &se) && (se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable) {
		cl.refused++
	}
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+": %v\n", append(args, err)...)
}

// session replays one capture through a daemon session: open, every
// frame, seal, sealed hot query, evict. Each request is one attempted
// op toward the failure count; the session is the unit op whose time
// is returned. op < 0 marks an untimed warm-up session.
func (cl *ingestClient) session(ic *ingestCapture, tr *tracer, op int) (t opTime) {
	p := ic.c.prog
	clk := cl.speed.startOp()
	root := tr.begin(op, -1, "op")
	defer func() {
		tr.end(root)
		t = clk.stop()
	}()

	cl.attempted++
	s := tr.begin(op, root, "serve.open")
	info, err := cl.d.client.Open(serve.OpenRequest{Workload: p.name, Chunk: ingestChunk, Workers: buildWorkers, Format: "wpp2"})
	tr.end(s)
	if err != nil {
		cl.fail(err, "%s: open", p)
		return
	}
	defer func() {
		cl.attempted++
		s := tr.begin(op, root, "serve.evict")
		if err := cl.d.client.Evict(info.ID); err != nil {
			cl.fail(err, "%s: evict", p)
		}
		tr.end(s)
	}()
	for i, frame := range ic.frames {
		cl.attempted++
		s := tr.begin(op, root, "serve.frame")
		res, err := cl.d.client.IngestRaw(info.ID, frame)
		tr.endN(s, ic.counts[i])
		if err == nil && res.Accepted != ic.counts[i] {
			err = fmt.Errorf("accepted %d of %d events", res.Accepted, ic.counts[i])
		}
		if err != nil {
			cl.fail(err, "%s: frame %d", p, i)
			return
		}
	}

	cl.attempted++
	s = tr.begin(op, root, "serve.seal")
	sealed, err := cl.d.client.Seal(info.ID, ic.c.instructions)
	tr.end(s)
	if err == nil && sealed.SHA256 != ic.wantSHA {
		err = fmt.Errorf("sealed SHA-256 %s, local build %s", sealed.SHA256, ic.wantSHA)
	}
	if err != nil {
		cl.fail(err, "%s: seal", p)
		return
	}
	if tr != nil {
		cl.encoded += int(sealed.ArtifactBytes)
	}

	cl.attempted++
	s = tr.begin(op, root, "serve.hot")
	hot, err := cl.d.client.Hot(info.ID, ingestQuery)
	tr.end(s)
	if err == nil {
		err = sameHot(hot.Subpaths, ic.wantHot)
	}
	if err != nil {
		cl.fail(err, "%s: hot", p)
	}
	return
}

// sameHot compares a sealed /hot answer with the local oracle.
func sameHot(got, want []serve.HotSubpath) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hot subpaths, local build has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Count != w.Count || g.Cost != w.Cost || g.Fraction != w.Fraction || fmt.Sprint(g.Raw) != fmt.Sprint(w.Raw) {
			return fmt.Errorf("hot subpath %d differs from the local build", i)
		}
	}
	return nil
}
