package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/bl"
	"repro/internal/hotpath"
	"repro/internal/interp"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// Config tunes the daemon's resource policies. The zero value is usable;
// every limit has a production-shaped default.
type Config struct {
	// MaxSessions bounds resident sessions (open + sealed). Opens beyond
	// it shed load with 503. Default 1024.
	MaxSessions int
	// SessionQuota bounds events per session; frames that would exceed
	// it are refused with 429. 0 = unlimited.
	SessionQuota uint64
	// MaxBodyBytes bounds one events frame; larger bodies get 413.
	// Default 8 MiB (~1M varint events).
	MaxBodyBytes int64
	// MaxInflight bounds concurrently decoded ingest frames server-wide;
	// excess frames get 503. Each in-flight frame holds one 32 KiB
	// decode block and its decoded events, 8 B each. A varint can be
	// one byte, so a frame decodes to at most MaxBodyBytes events, 8 ×
	// MaxBodyBytes bytes (a frame of zero bytes, which an anonymous
	// session accepts, gets there), and while the event buffer grows
	// its old array is live too. Peak ingest memory is therefore about
	// MaxInflight × (16 × MaxBodyBytes + 32 KiB) at worst, whatever the
	// client count; idle buffers wait in a sync.Pool, which GC empties.
	// Default 2*GOMAXPROCS.
	MaxInflight int
	// IdleTimeout evicts sessions (open or sealed) with no activity for
	// this long. 0 disables idle eviction.
	IdleTimeout time.Duration
	// SweepEvery is the janitor period; default 5s (only meaningful with
	// IdleTimeout > 0).
	SweepEvery time.Duration
	// Dir, when set, persists every sealed artifact as Dir/<id>.wpp.
	Dir string
	// Store, when set, records every sealed artifact in the
	// content-addressed store (chunk grammars dedup across sessions),
	// switches sealed-session /artifact delivery to chunk-at-a-time
	// streaming from the store, and enables GET /v1/artifacts/{hash}.
	Store *store.Store
	// Metrics instruments the daemon; nil runs uninstrumented.
	Metrics *Metrics
	// Now is the clock (tests inject a fake); nil means time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.SweepEvery <= 0 {
		c.SweepEvery = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// sessionProgram caches one bundled workload's compilation: sessions
// opened on the same workload share the function table and Ball–Larus
// numberings (all immutable after construction, so sharing is safe).
type sessionProgram struct {
	names    []string
	nums     []*bl.Numbering
	numPaths []uint64 // per-function path counts for ingest validation
}

// Server is the trace-ingestion daemon: an http.Handler plus the session
// table, backpressure machinery, and the idle-eviction janitor.
type Server struct {
	cfg Config
	met *Metrics

	mu       sync.Mutex
	sessions map[string]*session
	nextID   uint64
	closed   bool

	compileMu sync.Mutex
	compiled  map[string]*sessionProgram

	ingestSem chan struct{}

	janitorStop chan struct{}
	janitorDone chan struct{}
	closeOnce   sync.Once
}

// New returns a running Server (its janitor goroutine is live when idle
// eviction is configured). Close releases everything.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		met:         cfg.Metrics.orNoop(),
		sessions:    map[string]*session{},
		compiled:    map[string]*sessionProgram{},
		ingestSem:   make(chan struct{}, cfg.MaxInflight),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	go s.janitor()
	return s
}

// Close stops the janitor and evicts every resident session, draining
// their builders. Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.janitorStop)
		<-s.janitorDone
		s.mu.Lock()
		s.closed = true
		all := make([]*session, 0, len(s.sessions))
		for _, ss := range s.sessions {
			all = append(all, ss)
		}
		s.sessions = map[string]*session{}
		s.mu.Unlock()
		for _, ss := range all {
			if ss.evict() {
				s.met.SessionsEvicted.Inc()
				s.met.SessionsOpen.Add(-1)
			}
		}
	})
}

// janitor periodically evicts idle sessions and samples the heap gauge.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(s.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}

// Sweep runs one janitor pass: evict sessions idle past the deadline and
// refresh the heap gauge. Exposed so tests (and operators via SIGQUIT
// handlers, if they wish) can force a deterministic pass.
func (s *Server) Sweep() int {
	now := s.cfg.Now()
	var victims []*session
	s.mu.Lock()
	for id, ss := range s.sessions {
		if s.cfg.IdleTimeout > 0 && ss.idle(now) > s.cfg.IdleTimeout {
			delete(s.sessions, id)
			victims = append(victims, ss)
		}
	}
	s.mu.Unlock()
	for _, ss := range victims {
		if ss.evict() {
			s.met.SessionsEvicted.Inc()
			s.met.SessionsOpen.Add(-1)
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.met.HeapBytes.Set(int64(ms.HeapAlloc))
	return len(victims)
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleOpen)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleInfo)
	mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/sessions/{id}/seal", s.handleSeal)
	mux.HandleFunc("GET /v1/sessions/{id}/hot", s.handleHot)
	mux.HandleFunc("GET /v1/sessions/{id}/artifact", s.handleArtifact)
	mux.HandleFunc("GET /v1/artifacts/{hash}", s.handleStoredArtifact)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleEvict)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone = nothing to do
}

func writeErr(w http.ResponseWriter, err *apiError) {
	writeJSON(w, err.status, errorBody{Error: err.msg})
}

func (s *Server) lookup(r *http.Request) (*session, *apiError) {
	id := r.PathValue("id")
	s.mu.Lock()
	ss := s.sessions[id]
	s.mu.Unlock()
	if ss == nil {
		return nil, errf(http.StatusNotFound, "no session %q", id)
	}
	return ss, nil
}

// openProgram compiles a bundled workload once and caches its session
// view; the numberings are shared by every session on that workload.
func (s *Server) openProgram(name string) (*sessionProgram, *apiError) {
	s.compileMu.Lock()
	defer s.compileMu.Unlock()
	if p, ok := s.compiled[name]; ok {
		return p, nil
	}
	w, err := workloads.ByName(name)
	if err != nil {
		return nil, errf(http.StatusBadRequest, "%v", err)
	}
	prog, err := wlc.Compile(w.Source)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "compiling %s: %v", name, err)
	}
	nums, err := interp.Numberings(prog)
	if err != nil {
		return nil, errf(http.StatusInternalServerError, "numbering %s: %v", name, err)
	}
	p := &sessionProgram{names: prog.FuncNames(), nums: nums, numPaths: numPathsOf(nums)}
	s.compiled[name] = p
	return p, nil
}

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req OpenRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			writeErr(w, errf(http.StatusBadRequest, "parsing open request: %v", err))
			return
		}
	}
	var format uint8 = iwpp.FormatV1
	switch req.Format {
	case "", "wpp1":
	case "wpp2":
		format = iwpp.FormatV2
	default:
		writeErr(w, errf(http.StatusBadRequest, "unknown format %q (want wpp1 or wpp2)", req.Format))
		return
	}

	var names []string
	var numPaths []uint64
	var nums []*bl.Numbering
	if req.Workload != "" {
		p, aerr := s.openProgram(req.Workload)
		if aerr != nil {
			writeErr(w, aerr)
			return
		}
		names, nums, numPaths = p.names, p.nums, p.numPaths
	}

	// Each worker is a goroutine, so a client's count is clamped to the
	// cores: it cannot change the artifact, only the daemon's footprint.
	builder := iwpp.New(names, nums, iwpp.BuildOptions{
		ChunkSize: req.Chunk,
		Workers:   min(max(req.Workers, 0), runtime.GOMAXPROCS(0)),
		Metrics:   s.met.Build,
	})
	ss := &session{
		workload: req.Workload,
		scale:    req.Scale,
		chunk:    req.Chunk,
		format:   format,
		quota:    s.cfg.SessionQuota,
		numPaths: numPaths,
		builder:  builder,
	}
	ss.touch(s.cfg.Now())

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		builder.Finish(0)
		writeErr(w, errf(http.StatusServiceUnavailable, "server shutting down"))
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		builder.Finish(0) // drain the pipeline we just created
		writeErr(w, errf(http.StatusServiceUnavailable,
			"session table full (%d resident); retry later or evict", s.cfg.MaxSessions))
		return
	}
	s.nextID++
	ss.id = fmt.Sprintf("s-%06d", s.nextID)
	s.sessions[ss.id] = ss
	s.mu.Unlock()

	s.met.SessionsOpened.Inc()
	s.met.SessionsOpen.Add(1)
	writeJSON(w, http.StatusCreated, ss.info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	all := make([]*session, 0, len(s.sessions))
	for _, ss := range s.sessions {
		all = append(all, ss)
	}
	s.mu.Unlock()
	res := ListResult{Sessions: make([]SessionInfo, 0, len(all))}
	for _, ss := range all {
		res.Sessions = append(res.Sessions, ss.info())
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	ss, aerr := s.lookup(r)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, ss.info())
}

// eventBufPool recycles decode buffers across ingest frames.
var eventBufPool = sync.Pool{
	New: func() any {
		b := make([]trace.Event, 0, 16384)
		return &b
	},
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	// Bounded ingest queue: admission is a non-blocking semaphore
	// acquire, so when every slot holds an in-flight frame the server
	// sheds load with 503 instead of buffering without bound.
	select {
	case s.ingestSem <- struct{}{}:
	default:
		s.met.IngestRejected.Inc()
		writeErr(w, errf(http.StatusServiceUnavailable,
			"ingest queue full (%d frames in flight)", s.cfg.MaxInflight))
		return
	}
	s.met.QueueDepth.Add(1)
	start := time.Now()
	defer func() {
		s.met.QueueDepth.Add(-1)
		<-s.ingestSem
		s.met.IngestLatency.Observe(time.Since(start))
	}()
	s.met.IngestRequests.Inc()

	ss, aerr := s.lookup(r)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}

	// Frames are transactional: decode and validate the whole body
	// before any event reaches the builder. A disconnect or malformed
	// tail therefore never leaves a half-applied frame behind.
	bufp := eventBufPool.Get().(*[]trace.Event)
	defer func() {
		*bufp = (*bufp)[:0]
		eventBufPool.Put(bufp)
	}()
	events, aerr := decodeFrame(w, r, s.cfg.MaxBodyBytes, ss, (*bufp)[:0])
	*bufp = events[:0]
	if aerr != nil {
		s.met.IngestErrors.Inc()
		writeErr(w, aerr)
		return
	}
	res, aerr := ss.ingest(events, s.cfg.Now())
	if aerr != nil {
		s.met.IngestErrors.Inc()
		writeErr(w, aerr)
		return
	}
	s.met.EventsIngested.Add(res.Accepted)
	writeJSON(w, http.StatusOK, res)
}

// frameReaders pools WPT1 readers, each with its decode block, across
// ingest frames.
var frameReaders = sync.Pool{New: func() any { return new(trace.Reader) }}

// decodeFrame reads one WPT1 frame from the request and validates it
// against the session, mapping each failure mode to its protocol
// status: oversized body 413, bad magic / truncation / out-of-range
// events 400. It returns the grown buffer even on failure, so the
// caller can pool it.
func decodeFrame(w http.ResponseWriter, r *http.Request, maxBytes int64, ss *session, buf []trace.Event) ([]trace.Event, *apiError) {
	buf, err := readFrame(http.MaxBytesReader(w, r.Body, maxBytes), maxBytes, buf)
	// A session check failure on an event before a wire error came
	// first in the stream, so it is the one reported.
	if cerr := ss.checkEvents(buf); cerr != nil {
		return buf, frameError(cerr)
	}
	if err != nil {
		return buf, frameError(err)
	}
	return buf, nil
}

// readFrame decodes the whole WPT1 frame in body, at most maxBytes
// long, onto buf through a pooled reader. On error, buf holds the
// events decoded before it. Each event takes at least one byte, so buf
// never grows past maxBytes events.
func readFrame(body io.Reader, maxBytes int64, buf []trace.Event) ([]trace.Event, error) {
	fr := frameReaders.Get().(*trace.Reader)
	defer frameReaders.Put(fr)
	err := fr.Reset(body)
	for err == nil {
		if len(buf) == cap(buf) {
			grow := min(int64(len(buf)), maxBytes-int64(len(buf))) // double, clipped
			buf = slices.Grow(buf, int(max(grow, 1)))
		}
		var n int
		n, err = fr.ReadBatch(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
	}
	if err == io.EOF {
		err = nil
	}
	return buf, err
}

func frameError(err error) *apiError {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return errf(http.StatusRequestEntityTooLarge, "frame exceeds %d bytes", tooBig.Limit)
	case errors.Is(err, trace.ErrBadMagic),
		errors.Is(err, trace.ErrTruncated),
		errors.Is(err, trace.ErrEventRange):
		return errf(http.StatusBadRequest, "%v", err)
	default:
		// Anything else while reading a client body (a connection
		// drop) is still the client's frame failing, not server state.
		return errf(http.StatusBadRequest, "reading frame: %v", err)
	}
}

func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ss, aerr := s.lookup(r)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	var req SealRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			writeErr(w, errf(http.StatusBadRequest, "parsing seal request: %v", err))
			return
		}
	}
	res, aerr := ss.seal(req, s.cfg.Now())
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	s.met.SessionsSealed.Inc()
	s.met.ArtifactBytes.Add(uint64(res.ArtifactBytes))
	s.met.SealLatency.Observe(time.Since(start))
	if s.cfg.Dir != "" {
		ss.mu.Lock()
		enc := ss.encoded
		ss.mu.Unlock()
		path := filepath.Join(s.cfg.Dir, ss.id+".wpp")
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			writeErr(w, errf(http.StatusInternalServerError, "persisting artifact: %v", err))
			return
		}
	}
	// Write-through to the content-addressed store, then drop the
	// resident encoding: /artifact streams from the store afterwards,
	// and identical chunk grammars from other sessions dedup.
	if s.cfg.Store != nil {
		if a, enc, ok := ss.sealedForStore(); ok {
			h, _, err := s.cfg.Store.PutArtifactEncoded(a, enc)
			if err != nil {
				writeErr(w, errf(http.StatusInternalServerError, "storing artifact: %v", err))
				return
			}
			if h.String() != res.SHA256 {
				// The store hash IS the seal digest by construction; a
				// mismatch means memory corruption, not client error.
				writeErr(w, errf(http.StatusInternalServerError,
					"store hash %s disagrees with seal digest %s", h, res.SHA256))
				return
			}
			ss.offload(s.cfg.Store, h)
		}
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleHot(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	ss, aerr := s.lookup(r)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	q := r.URL.Query()
	opts := hotpath.Options{MinLen: 4, MaxLen: 16, Threshold: 0.01}
	k := 20
	var perr *apiError
	getInt := func(name string, dst *int) {
		if v := q.Get(name); v != "" && perr == nil {
			n, err := strconv.Atoi(v)
			if err != nil {
				perr = errf(http.StatusBadRequest, "bad %s: %v", name, err)
				return
			}
			*dst = n
		}
	}
	getInt("min", &opts.MinLen)
	getInt("max", &opts.MaxLen)
	getInt("k", &k)
	if v := q.Get("threshold"); v != "" && perr == nil {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			perr = errf(http.StatusBadRequest, "bad threshold: %v", err)
		} else {
			opts.Threshold = f
		}
	}
	if perr != nil {
		writeErr(w, perr)
		return
	}
	res, aerr := ss.hotQuery(opts, k)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	s.met.HotQueries.Inc()
	s.met.HotLatency.Observe(time.Since(start))
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	ss, aerr := s.lookup(r)
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	enc, st, h, aerr := ss.artifactSource()
	if aerr != nil {
		writeErr(w, aerr)
		return
	}
	if st == nil {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(enc)))
		w.Write(enc) //nolint:errcheck // client gone = nothing to do
		return
	}
	s.streamArtifact(w, st, h)
}

// handleStoredArtifact serves any artifact in the content-addressed
// store by hash (full or unique prefix) — sealed sessions that were
// evicted long ago stay fetchable as long as the store holds them.
func (s *Server) handleStoredArtifact(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Store == nil {
		writeErr(w, errf(http.StatusNotFound, "no artifact store configured"))
		return
	}
	ref := r.PathValue("hash")
	h, err := s.cfg.Store.FindArtifact(ref)
	if err != nil {
		if errors.Is(err, store.ErrNotFound) {
			writeErr(w, errf(http.StatusNotFound, "%v", err))
		} else {
			writeErr(w, errf(http.StatusBadRequest, "%v", err))
		}
		return
	}
	s.streamArtifact(w, s.cfg.Store, h)
}

// streamArtifact copies one stored artifact to the response a part at a
// time — for chunked artifacts, one chunk grammar resident at once.
func (s *Server) streamArtifact(w http.ResponseWriter, st *store.Store, h store.Hash) {
	rd, size, err := st.ArtifactReader(h)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, store.ErrNotFound) {
			status = http.StatusNotFound
		}
		writeErr(w, errf(status, "reading stored artifact: %v", err))
		return
	}
	defer rd.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.Header().Set("X-WPP-Hash", h.String())
	n, err := io.Copy(w, rd)
	if err == nil {
		s.met.ArtifactBytesServed.Add(uint64(n))
	}
	// Past the header there is no way to signal a mid-stream store
	// fault; the short body (Content-Length mismatch) tells the client.
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	ss := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if ss == nil {
		writeErr(w, errf(http.StatusNotFound, "no session %q", id))
		return
	}
	if ss.evict() {
		s.met.SessionsEvicted.Inc()
		s.met.SessionsOpen.Add(-1)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Health{Status: "ok", Sessions: n})
}
