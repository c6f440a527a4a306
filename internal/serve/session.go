package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bl"
	"repro/internal/hotpath"
	"repro/internal/store"
	"repro/internal/trace"
	iwpp "repro/internal/wpp"
)

// apiError is an error with a protocol status; handlers render it as the
// JSON error envelope.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

type sessionState int

const (
	sessOpen sessionState = iota
	sessSealed
	sessGone
)

// session is one tracer's stream. The mutex serializes builder access:
// concurrent frames to the same session are applied atomically in arrival
// order (clients that need a deterministic artifact stream their frames
// sequentially; distinct sessions never contend).
type session struct {
	id       string
	workload string
	scale    string
	chunk    uint64
	format   uint8
	quota    uint64 // max events; 0 = unlimited

	// numPaths[fn] bounds valid path IDs when the session was opened
	// with a workload; nil for anonymous sessions.
	numPaths []uint64

	mu      sync.Mutex
	state   sessionState
	builder iwpp.Builder
	events  uint64

	artifact iwpp.Artifact
	encoded  []byte
	sha      string

	// stored, when non-nil, means the sealed encoding has been offloaded
	// to the content-addressed store under storedHash; /artifact streams
	// it from there (one chunk object in memory at a time) instead of
	// holding the whole encoding resident.
	stored     *store.Store
	storedHash store.Hash

	// lastActive is a unix-nano timestamp updated on every touch; the
	// janitor reads it without taking the session lock.
	lastActive atomic.Int64
}

func (ss *session) touch(now time.Time) { ss.lastActive.Store(now.UnixNano()) }

func (ss *session) idle(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, ss.lastActive.Load()))
}

func (ss *session) formatName() string {
	if ss.format >= iwpp.FormatV2 {
		return "wpp2"
	}
	return "wpp1"
}

func (ss *session) stateName() string {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch ss.state {
	case sessSealed:
		return "sealed"
	case sessGone:
		return "evicted"
	default:
		return "open"
	}
}

func (ss *session) info() SessionInfo {
	info := SessionInfo{
		ID:       ss.id,
		State:    ss.stateName(),
		Workload: ss.workload,
		Scale:    ss.scale,
		Chunk:    ss.chunk,
		Format:   ss.formatName(),
	}
	ss.mu.Lock()
	info.Events = ss.events
	ss.mu.Unlock()
	return info
}

// checkEvents validates a decoded frame against the session's program.
// The trace reader has already bounded the packed encoding; workload
// sessions additionally refuse events their numberings could never emit,
// so a hostile stream cannot poison the cost fill at seal time.
func (ss *session) checkEvents(events []trace.Event) error {
	if ss.numPaths == nil {
		return nil
	}
	for _, e := range events {
		fn := e.Func()
		if int(fn) >= len(ss.numPaths) {
			return fmt.Errorf("%w: function %d not in session program (%d functions)",
				trace.ErrEventRange, fn, len(ss.numPaths))
		}
		if e.Path() >= ss.numPaths[fn] {
			return fmt.Errorf("%w: path %d invalid for function %d (%d paths)",
				trace.ErrEventRange, e.Path(), fn, ss.numPaths[fn])
		}
	}
	return nil
}

// ingest applies one decoded frame transactionally: every event lands or
// none does (quota violations reject the whole frame, so a retried frame
// is idempotent-safe for the client to resend elsewhere).
func (ss *session) ingest(events []trace.Event, now time.Time) (IngestResult, *apiError) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch ss.state {
	case sessSealed:
		return IngestResult{}, errf(http.StatusConflict, "session %s is sealed", ss.id)
	case sessGone:
		return IngestResult{}, errf(http.StatusGone, "session %s was evicted", ss.id)
	}
	if ss.quota > 0 && ss.events+uint64(len(events)) > ss.quota {
		return IngestResult{}, errf(http.StatusTooManyRequests,
			"session %s event quota exceeded (%d used of %d, frame of %d refused)",
			ss.id, ss.events, ss.quota, len(events))
	}
	ss.builder.AddBatch(events)
	ss.events += uint64(len(events))
	ss.touch(now)
	return IngestResult{Accepted: uint64(len(events)), Events: ss.events}, nil
}

// seal finalizes the session: the builder is drained, the artifact is
// built, versioned, and encoded once; subsequent /hot and /artifact reads
// serve the sealed result. Sealing twice is a client error.
func (ss *session) seal(req SealRequest, now time.Time) (SealResult, *apiError) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch ss.state {
	case sessSealed:
		return SealResult{}, errf(http.StatusConflict, "session %s already sealed", ss.id)
	case sessGone:
		return SealResult{}, errf(http.StatusGone, "session %s was evicted", ss.id)
	}
	a := ss.builder.Finish(req.Instructions)
	ss.builder = nil
	iwpp.SetVersion(a, ss.format)
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		// Encoding to memory cannot fail for a well-formed artifact;
		// treat it as an internal fault rather than poisoning the session.
		return SealResult{}, errf(http.StatusInternalServerError, "encoding artifact: %v", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	ss.artifact = a
	ss.encoded = buf.Bytes()
	ss.sha = hex.EncodeToString(sum[:])
	ss.state = sessSealed
	ss.touch(now)
	return SealResult{
		Events:        a.NumEvents(),
		DistinctPaths: a.DistinctPaths(),
		ArtifactBytes: int64(len(ss.encoded)),
		Format:        ss.formatName(),
		SHA256:        ss.sha,
	}, nil
}

// evict finalizes and forgets the session. Open sessions drain their
// builder first (every build owns worker goroutines that Finish joins),
// so eviction never leaks a pooled grammar or a worker.
// Safe to call twice; only the first call reports work done.
func (ss *session) evict() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.state == sessGone {
		return false
	}
	if ss.state == sessOpen && ss.builder != nil {
		ss.builder.Finish(0)
		ss.builder = nil
	}
	ss.artifact = nil
	ss.encoded = nil
	ss.state = sessGone
	return true
}

// hotQuery answers a hot-subpath query. Sealed sessions answer from the
// sealed artifact — bit-for-bit what wpphot computes on the same file.
// Open monolithic sessions answer from a point-in-time snapshot of the
// growing grammar (the paper's online premise made queryable), which the
// build's worker takes between two batches; the session lock only orders
// the request after the frames already applied. Open chunked sessions
// cannot snapshot mid-flight and answer 409.
func (ss *session) hotQuery(opts hotpath.Options, k int) (HotResult, *apiError) {
	ss.mu.Lock()
	a, sealed := ss.artifact, ss.state == sessSealed
	switch ss.state {
	case sessGone:
		ss.mu.Unlock()
		return HotResult{}, errf(http.StatusGone, "session %s was evicted", ss.id)
	case sessOpen:
		w := ss.builder.(iwpp.LiveSnapshotter).SnapshotWPP()
		if w == nil {
			ss.mu.Unlock()
			return HotResult{}, errf(http.StatusConflict,
				"session %s is chunked: live queries need a monolithic session; seal first", ss.id)
		}
		a = w
	}
	ss.mu.Unlock()

	subs, err := hotpath.Find(a, opts, 0)
	if err != nil {
		return HotResult{}, errf(http.StatusBadRequest, "%v", err)
	}
	if k > 0 && len(subs) > k {
		subs = subs[:k]
	}
	funcs := a.FuncTable()
	res := HotResult{
		Sealed:    sealed,
		Events:    a.NumEvents(),
		TotalCost: a.TotalInstructions(),
		Subpaths:  make([]HotSubpath, len(subs)),
	}
	for i, s := range subs {
		h := HotSubpath{
			Events:   make([]string, len(s.Events)),
			Raw:      make([]uint64, len(s.Events)),
			Count:    s.Count,
			Cost:     s.Cost,
			Fraction: s.Fraction,
		}
		for j, e := range s.Events {
			h.Raw[j] = uint64(e)
			h.Events[j] = iwpp.EventName(funcs, e)
		}
		res.Subpaths[i] = h
	}
	return res, nil
}

// artifactSource returns where the sealed encoding lives: in-memory
// bytes (st == nil), or the store and hash to stream it from.
func (ss *session) artifactSource() (enc []byte, st *store.Store, h store.Hash, aerr *apiError) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	switch ss.state {
	case sessGone:
		return nil, nil, store.Hash{}, errf(http.StatusGone, "session %s was evicted", ss.id)
	case sessOpen:
		return nil, nil, store.Hash{}, errf(http.StatusConflict, "session %s is not sealed", ss.id)
	}
	if ss.stored != nil {
		return nil, ss.stored, ss.storedHash, nil
	}
	return ss.encoded, nil, store.Hash{}, nil
}

// sealedForStore hands out the artifact and its encoding for the
// write-through store path; false when the session is not sealed or the
// encoding was already offloaded.
func (ss *session) sealedForStore() (iwpp.Artifact, []byte, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.state != sessSealed || ss.encoded == nil {
		return nil, nil, false
	}
	return ss.artifact, ss.encoded, true
}

// offload releases the resident encoding in favor of store-backed
// delivery. The artifact itself stays resident for /hot queries.
func (ss *session) offload(st *store.Store, h store.Hash) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.state != sessSealed {
		return
	}
	ss.stored = st
	ss.storedHash = h
	ss.encoded = nil
}

// numPathsOf projects the per-function path counts used for ingest
// validation.
func numPathsOf(nums []*bl.Numbering) []uint64 {
	if nums == nil {
		return nil
	}
	out := make([]uint64, len(nums))
	for i, n := range nums {
		if n != nil {
			out[i] = n.NumPaths
		}
	}
	return out
}
