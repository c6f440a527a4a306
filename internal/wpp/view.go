package wpp

import (
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/mmapio"
	"repro/internal/obsv"
	"repro/internal/sequitur"
	"repro/internal/trace"
)

// ArtifactView is a lazy, read-only view of an encoded artifact in any
// of the four formats (WPP1, WPP2, WPC1, WPC2). It is the package's only
// artifact parser: Decode opens one and materializes it. Opening a
// view parses only the header — magic, function table, counters, cost
// table — without building sequitur grammars, copying symbol arrays, or
// even walking the chunk region. Chunk byte regions are delimited by a
// one-time framing scan on first materialization, and chunk grammars
// materialize on demand via Chunk, each decode fully bounds-checked, so
// a corrupt artifact yields a typed error at materialization rather
// than silent garbage.
//
// A view over an in-memory buffer (NewView, OpenViewFile) holds the
// buffer for its whole lifetime; a view assembled from store parts
// (NewViewParts) loads and releases each chunk's bytes around
// materialization. Either way the header — everything an analysis needs
// before touching the trace — is decoded eagerly, so stats-style
// queries answer in O(header) instead of O(trace).
//
// A view is an engine.Source: every chunk it returns has passed
// sequitur.Snapshot.Validate, so analyses over it may recurse over the
// rules. Views are safe for concurrent use after opening: the deferred
// chunk index is built exactly once under a sync.Once, and
// materialization is pure (every Chunk call decodes afresh; nothing is
// cached or mutated).
type ArtifactView struct {
	header
	format string
	size   int64
	// dict is the v2 terminal dictionary (ascending cost-table events);
	// nil for v1, whose terminals are raw event values.
	dict []trace.Event

	// nchunks is the chunk count declared by the header (1 for the
	// monolithic formats). A byte-backed view holds raw, the encoded
	// artifact, and hdrEnd, the offset of the first chunk grammar; segs,
	// each chunk's byte region, is delimited from raw on first use. A
	// parts-backed view leaves raw nil and holds one loader per chunk.
	nchunks   int
	raw       []byte
	hdrEnd    int
	segs      [][]byte
	loads     []ChunkLoad
	indexOnce sync.Once
	indexErr  error

	met       ViewMetrics
	opened    time.Time
	firstOnce sync.Once
	closer    io.Closer
}

// ChunkLoad produces one chunk's encoded bytes. release (may be nil)
// is called once the bytes have been decoded; implementations backed by
// a transient mapping use it to unmap. An error is returned verbatim to
// the materializing caller wrapped in a *ViewError.
type ChunkLoad func() (data []byte, release func(), err error)

// ViewError reports a failure materializing one chunk of a view. Match
// with errors.As; Unwrap exposes the underlying decode or load error.
type ViewError struct {
	Chunk int
	Err   error
}

func (e *ViewError) Error() string { return fmt.Sprintf("wpp: view chunk %d: %v", e.Chunk, e.Err) }
func (e *ViewError) Unwrap() error { return e.Err }

// ViewOptions configures NewView/NewViewParts/OpenViewFile. The zero
// value (or nil) is valid: no instrumentation, nothing to close.
type ViewOptions struct {
	// Metrics receives open-path instrumentation; nil disables it.
	Metrics *ViewMetrics
	// Closer, if non-nil, is closed by ArtifactView.Close — and by the
	// constructor itself if opening fails. Callers hand the view
	// ownership of whatever backs the data (typically an mmapio.Data).
	Closer io.Closer
}

// ViewMetrics is the open-path instrumentation hook set. Any field may
// be nil — obsv metrics are nil-safe no-ops — and a nil *ViewMetrics
// disables instrumentation entirely.
type ViewMetrics struct {
	// Opens counts views successfully opened.
	Opens *obsv.Counter
	// BytesMapped counts artifact bytes served by live memory mappings
	// (as opposed to heap copies).
	BytesMapped *obsv.Counter
	// BytesIndexed counts artifact bytes covered by index passes: the
	// header at open, plus the chunk region when the deferred boundary
	// scan runs on first materialization.
	BytesIndexed *obsv.Counter
	// ChunksMaterialized counts chunk grammars decoded on demand, and
	// MaterializedBytes the encoded bytes those decodes consumed.
	ChunksMaterialized *obsv.Counter
	MaterializedBytes  *obsv.Counter
	// IndexSeconds is the open-time index latency distribution;
	// FirstResultSeconds measures open to first materialized chunk —
	// the time-to-first-result a lazy open buys.
	IndexSeconds       *obsv.Histogram
	FirstResultSeconds *obsv.Histogram
}

// NewViewMetrics registers the standard wpp_open_* metric names on r
// and returns the hook set. A nil registry yields all-nil (no-op)
// metrics.
func NewViewMetrics(r *obsv.Registry) *ViewMetrics {
	return &ViewMetrics{
		Opens:              r.Counter("wpp_open_total"),
		BytesMapped:        r.Counter("wpp_open_bytes_mapped_total"),
		BytesIndexed:       r.Counter("wpp_open_bytes_indexed_total"),
		ChunksMaterialized: r.Counter("wpp_open_chunks_materialized_total"),
		MaterializedBytes:  r.Counter("wpp_open_chunk_bytes_total"),
		IndexSeconds:       r.Histogram("wpp_open_index_seconds", nil),
		FirstResultSeconds: r.Histogram("wpp_open_first_result_seconds", nil),
	}
}

// orNoop lets views hold a value so instrumentation sites can call
// through nil fields without checking the pointer first.
func (m *ViewMetrics) orNoop() ViewMetrics {
	if m == nil {
		return ViewMetrics{}
	}
	return *m
}

// byteReader is a bounds-checked cursor over an encoded artifact. It
// never copies: take returns subslices of the underlying data.
type byteReader struct {
	data []byte
	off  int
}

func (r *byteReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n == 0 {
		return 0, fmt.Errorf("wpp: reading %s: %w", what, io.ErrUnexpectedEOF)
	}
	if n < 0 {
		return 0, fmt.Errorf("wpp: reading %s: varint overflows 64 bits", what)
	}
	r.off += n
	return v, nil
}

func (r *byteReader) take(n int, what string) ([]byte, error) {
	if len(r.data)-r.off < n {
		return nil, fmt.Errorf("wpp: reading %s: %w", what, io.ErrUnexpectedEOF)
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b, nil
}

// parseFuncTable reads the function table, capping its sizes. Names are
// copied out of the buffer (string conversion), so the table never
// retains mapped bytes.
func parseFuncTable(r *byteReader) ([]FuncInfo, error) {
	numFuncs, err := r.uvarint("function count")
	if err != nil {
		return nil, err
	}
	if numFuncs > trace.MaxFuncs {
		return nil, fmt.Errorf("wpp: implausible function count %d", numFuncs)
	}
	// Each entry takes at least two bytes (name length and path count),
	// so the bytes left bound the table before any entry is read.
	funcs := make([]FuncInfo, 0, min(numFuncs, uint64(len(r.data)-r.off)/2))
	for range numFuncs {
		nameLen, err := r.uvarint("name length")
		if err != nil {
			return nil, err
		}
		if nameLen > 1<<16 {
			return nil, fmt.Errorf("wpp: implausible name length %d", nameLen)
		}
		name, err := r.take(int(nameLen), "name")
		if err != nil {
			return nil, err
		}
		fi := FuncInfo{Name: string(name)}
		if fi.NumPaths, err = r.uvarint("path count"); err != nil {
			return nil, err
		}
		funcs = append(funcs, fi)
	}
	return funcs, nil
}

// parseCostTable reads the cost table in the header's version. A v1
// table holds absolute events, in any order. A v2 table is
// delta-encoded, and its events, ascending, are also returned as the
// terminal dictionary (nil for v1); deltas that break strict ascent are
// rejected, since they would make dictionary ranks ambiguous.
func (h *header) parseCostTable(r *byteReader) ([]trace.Event, map[trace.Event]uint64, error) {
	numCosts, err := r.uvarint("cost count")
	if err != nil {
		return nil, nil, err
	}
	if numCosts > 1<<32 {
		return nil, nil, fmt.Errorf("wpp: implausible cost count %d", numCosts)
	}
	// An entry takes at least two bytes (event and cost), so the bytes
	// left bound the tables before any entry is read.
	capacity := min(numCosts, uint64(len(r.data)-r.off)/2)
	costs := make(map[trace.Event]uint64, capacity)
	var dict []trace.Event
	what := "cost event"
	if h.v2() {
		dict = make([]trace.Event, 0, capacity)
		what = "cost event delta"
	}
	prev := uint64(0)
	for i := uint64(0); i < numCosts; i++ {
		v, err := r.uvarint(what)
		if err != nil {
			return nil, nil, err
		}
		if h.v2() && i > 0 {
			if v == 0 {
				return nil, nil, fmt.Errorf("wpp: cost table entry %d repeats its predecessor", i)
			}
			var carry uint64
			if v, carry = bits.Add64(prev, v, 0); carry != 0 {
				return nil, nil, fmt.Errorf("wpp: cost table entry %d overflows", i)
			}
		}
		c, err := r.uvarint("cost value")
		if err != nil {
			return nil, nil, err
		}
		if err := trace.CheckEvent(trace.Event(v)); err != nil {
			return nil, nil, fmt.Errorf("wpp: cost table: %w", err)
		}
		if h.v2() {
			dict = append(dict, trace.Event(v))
		}
		costs[trace.Event(v)] = c
		prev = v
	}
	return dict, costs, nil
}

// formats lists the four artifact encodings by magic, in the order an
// unknown-magic error names them.
var formats = []struct {
	magic   [4]byte
	name    string
	version uint8
	chunked bool
}{
	{wppMagic, "monolithic WPP", FormatV1, false},
	{wpp2Magic, "monolithic WPP v2", FormatV2, false},
	{chunkedMagic, "chunked WPP", FormatV1, true},
	{chunked2Magic, "chunked WPP v2", FormatV2, true},
}

// lookupFormat names the encoding a magic opens; an unknown magic is an
// error listing the ones this build reads.
func lookupFormat(m [4]byte) (name string, version uint8, chunked bool, err error) {
	for _, f := range formats {
		if f.magic == m {
			return f.name, f.version, f.chunked, nil
		}
	}
	known := make([]string, len(formats))
	for i, f := range formats {
		known[i] = fmt.Sprintf("%q %s", f.magic[:], f.name)
	}
	return "", 0, false, fmt.Errorf("wpp: bad magic %q (known formats: %s)", m[:], strings.Join(known, ", "))
}

// parseHeader decodes everything before the chunk grammars and returns
// the number of chunks that follow (1 for the monolithic formats, whose
// single grammar is modeled as one chunk).
func (v *ArtifactView) parseHeader(r *byteReader) (int, error) {
	mb, err := r.take(4, "magic")
	if err != nil {
		return 0, err
	}
	if v.format, v.version, v.chunked, err = lookupFormat([4]byte(mb)); err != nil {
		return 0, err
	}
	if v.funcs, err = parseFuncTable(r); err != nil {
		return 0, err
	}
	if v.chunked {
		if v.chunkSize, err = r.uvarint("chunk size"); err != nil {
			return 0, err
		}
		if v.chunkSize == 0 {
			return 0, fmt.Errorf("wpp: chunk size 0")
		}
	}
	if v.events, err = r.uvarint("event count"); err != nil {
		return 0, err
	}
	if v.instructions, err = r.uvarint("instruction count"); err != nil {
		return 0, err
	}
	if v.chunked {
		peak, err := r.uvarint("peak live RHS")
		if err != nil {
			return 0, err
		}
		if peak > 1<<40 {
			return 0, fmt.Errorf("wpp: implausible peak live RHS %d", peak)
		}
		v.peakLiveRHS = int(peak)
	}
	if v.dict, v.costs, err = v.parseCostTable(r); err != nil {
		return 0, err
	}
	if !v.chunked {
		return 1, nil
	}
	numChunks, err := r.uvarint("chunk count")
	if err != nil {
		return 0, err
	}
	if numChunks > 1<<32 {
		return 0, fmt.Errorf("wpp: implausible chunk count %d", numChunks)
	}
	return int(numChunks), nil
}

// NewView indexes an encoded artifact held in memory. Only the header
// is parsed here; the chunk region is delimited lazily, so an open
// followed by header queries never touches the trace bytes at all. The
// view takes ownership of opts.Closer — closing it on failure, and on
// ArtifactView.Close otherwise — and retains data for its lifetime;
// chunk decodes read straight from the buffer.
func NewView(data []byte, opts *ViewOptions) (*ArtifactView, error) {
	var o ViewOptions
	if opts != nil {
		o = *opts
	}
	v := &ArtifactView{met: o.Metrics.orNoop(), closer: o.Closer, opened: time.Now()}
	start := time.Now()
	r := &byteReader{data: data}
	var numChunks int
	err := noFault(func() (err error) {
		numChunks, err = v.parseHeader(r)
		return err
	})
	// A chunk grammar takes at least 5 bytes (magic and rule count), so a
	// count the bytes cannot hold is refused before it sizes any table.
	if err == nil && numChunks > 1 && numChunks > (len(data)-r.off)/5 {
		err = fmt.Errorf("wpp: %d chunks cannot fit in the %d bytes after the header", numChunks, len(data)-r.off)
	}
	if err != nil {
		if v.closer != nil {
			v.closer.Close()
		}
		return nil, err
	}
	v.nchunks = numChunks
	v.raw = data
	v.hdrEnd = r.off
	v.size = int64(len(data))
	v.met.Opens.Inc()
	v.met.BytesIndexed.Add(uint64(r.off))
	v.met.IndexSeconds.Observe(time.Since(start))
	return v, nil
}

// Decode fully decodes an encoded artifact in any of the four formats:
// it opens a view and materializes every chunk, so the result
// re-encodes to the bytes that were read, up to the end of the last
// grammar.
func Decode(data []byte) (Artifact, error) {
	v, err := NewView(data, nil)
	if err != nil {
		return nil, err
	}
	if !v.chunked {
		return v.WPP()
	}
	chunks, err := v.chunks()
	if err != nil {
		return nil, err
	}
	return &ChunkedWPP{
		Funcs:        v.funcs,
		Chunks:       chunks,
		ChunkSize:    v.chunkSize,
		Events:       v.events,
		Instructions: v.instructions,
		PeakLiveRHS:  v.peakLiveRHS,
		Version:      v.version,
		costs:        maps.Clone(v.costs),
	}, nil
}

// noFault runs fn with memory faults turned into panics
// (debug.SetPanicOnFault) and recovers such a panic as an error, so a
// mapped file truncated under a view fails the read instead of killing
// the process with SIGBUS. The setting is per goroutine, so every path
// that reads artifact bytes — the header parse, the framing scan, and
// each chunk decode, including those on engine.EachChunk's workers —
// runs under its own call.
func noFault(fn func() error) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			fault, ok := r.(interface{ Addr() uintptr })
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("wpp: memory fault at %#x reading the artifact (file truncated while mapped?)", fault.Addr())
		}
	}()
	return fn()
}

// segments returns a byte-backed view's chunk regions, delimited by a
// framing scan that runs exactly once, on first use — keeping the open
// path O(header). Framing corruption discovered by the scan surfaces as
// a *ViewError naming the offending chunk on this and every later
// access.
func (v *ArtifactView) segments() ([][]byte, error) {
	v.indexOnce.Do(func() {
		segs := make([][]byte, 0, min(v.nchunks, 1<<16))
		off := v.hdrEnd
		for i := 0; i < v.nchunks; i++ {
			var n int
			err := noFault(func() (err error) {
				n, err = sequitur.Scan(v.raw[off:])
				return err
			})
			if err != nil {
				v.indexErr = &ViewError{Chunk: i, Err: err}
				return
			}
			segs = append(segs, v.raw[off:off+n])
			off += n
		}
		// Bytes after the last chunk are tolerated: the artifact ends
		// where its grammar does.
		v.segs = segs
		v.met.BytesIndexed.Add(uint64(off - v.hdrEnd))
	})
	return v.segs, v.indexErr
}

// Parts splits a byte-backed chunked view into its header (everything
// before the first chunk grammar) and one byte slice per chunk grammar,
// all subslices of the viewed bytes. A content-addressed store hashes
// the parts individually and reopens them with NewViewParts; their
// concatenation is the artifact up to the end of its last chunk.
func (v *ArtifactView) Parts() (header []byte, chunks [][]byte, err error) {
	if !v.chunked || v.raw == nil {
		return nil, nil, fmt.Errorf("wpp: only a chunked view over whole artifact bytes splits into parts")
	}
	segs, err := v.segments()
	if err != nil {
		return nil, nil, err
	}
	return v.raw[:v.hdrEnd], segs, nil
}

// NewViewParts assembles a view from a chunked artifact stored as
// separate parts: the header bytes (everything before the first chunk
// grammar, as split by Parts) plus one ChunkLoad per chunk.
// totalSize is the whole artifact's encoded size. The header must
// declare exactly len(chunks) chunks and be fully consumed by the
// parse. Chunk bytes are loaded — and verified, if the loader verifies
// — only at materialization.
func NewViewParts(header []byte, chunks []ChunkLoad, totalSize int64, opts *ViewOptions) (*ArtifactView, error) {
	var o ViewOptions
	if opts != nil {
		o = *opts
	}
	v := &ArtifactView{met: o.Metrics.orNoop(), closer: o.Closer, opened: time.Now()}
	fail := func(err error) (*ArtifactView, error) {
		if v.closer != nil {
			v.closer.Close()
		}
		return nil, err
	}
	start := time.Now()
	r := &byteReader{data: header}
	numChunks, err := v.parseHeader(r)
	if err != nil {
		return fail(err)
	}
	if !v.chunked {
		return fail(fmt.Errorf("wpp: %s artifact cannot be opened from parts", v.format))
	}
	if r.off != len(header) {
		return fail(fmt.Errorf("wpp: chunked header has %d trailing bytes", len(header)-r.off))
	}
	if numChunks != len(chunks) {
		return fail(fmt.Errorf("wpp: header declares %d chunks, have %d parts", numChunks, len(chunks)))
	}
	v.nchunks = len(chunks)
	v.loads = chunks
	v.size = totalSize
	v.met.Opens.Inc()
	v.met.BytesIndexed.Add(uint64(len(header)))
	v.met.IndexSeconds.Observe(time.Since(start))
	return v, nil
}

// OpenViewFile opens an artifact file as a lazy view, memory-mapping it
// where the platform supports that. The returned view owns the mapping;
// Close releases it.
func OpenViewFile(path string, opts *ViewOptions) (*ArtifactView, error) {
	var o ViewOptions
	if opts != nil {
		o = *opts
	}
	d, err := mmapio.Open(path)
	if err != nil {
		return nil, err
	}
	if d.Mapped() {
		o.Metrics.orNoop().BytesMapped.Add(uint64(d.Len()))
	}
	o.Closer = d
	return NewView(d.Bytes(), &o)
}

// Format is the display name of the format that was indexed (e.g.
// "chunked WPP v2").
func (v *ArtifactView) Format() string { return v.format }

// Chunked reports whether the artifact is a chunked container. A
// monolithic artifact presents its single grammar as chunk 0.
func (v *ArtifactView) Chunked() bool { return v.chunked }

// FuncTable lists the traced functions, indexed by function ID.
func (v *ArtifactView) FuncTable() []FuncInfo { return v.funcs }

// NumEvents is the trace length (number of acyclic path events).
func (v *ArtifactView) NumEvents() uint64 { return v.events }

// TotalInstructions is the executed IR instruction count.
func (v *ArtifactView) TotalInstructions() uint64 { return v.instructions }

// NumChunks reports the number of chunk grammars (1 for monolithic
// artifacts).
func (v *ArtifactView) NumChunks() int { return v.nchunks }

// Size is the encoded size of the artifact in bytes.
func (v *ArtifactView) Size() int64 { return v.size }

// DistinctPaths reports how many distinct (function, path) pairs were
// executed.
func (v *ArtifactView) DistinctPaths() int { return len(v.costs) }

// PathCost returns the instruction cost of one event's acyclic path;
// unknown events cost 0.
func (v *ArtifactView) PathCost(e trace.Event) uint64 { return v.costs[e] }

// Close releases whatever backs the view (the memory mapping for
// OpenViewFile views). The view must not be used afterwards.
func (v *ArtifactView) Close() error {
	if v.closer != nil {
		return v.closer.Close()
	}
	return nil
}

// Chunk materializes chunk i's grammar: load bytes, decode with full
// bounds checks, release the bytes, validate the grammar (in range,
// acyclic, no short rules), and (for v2) rewrite terminal ranks back to
// event values against the artifact's dictionary. Every call decodes
// afresh; the returned snapshot shares nothing with the view's backing
// bytes and stays valid after Close.
func (v *ArtifactView) Chunk(i int) (*sequitur.Snapshot, error) {
	if i < 0 || i >= v.nchunks {
		return nil, &ViewError{Chunk: i, Err: fmt.Errorf("wpp: chunk index out of range (%d chunks)", v.nchunks)}
	}
	var data []byte
	var release func()
	if v.raw != nil {
		segs, err := v.segments()
		if err != nil {
			return nil, err
		}
		data = segs[i]
	}
	var sn *sequitur.Snapshot
	err := noFault(func() (err error) {
		if v.raw == nil {
			if data, release, err = v.loads[i](); err != nil {
				return err
			}
		}
		if sn, err = sequitur.Decode(data); err == nil {
			err = sn.Validate()
		}
		return err
	})
	if release != nil {
		release()
	}
	if err != nil {
		return nil, &ViewError{Chunk: i, Err: err}
	}
	if v.dict != nil {
		if err := unrankSnapshot(sn, v.dict); err != nil {
			return nil, &ViewError{Chunk: i, Err: err}
		}
	}
	v.met.ChunksMaterialized.Inc()
	v.met.MaterializedBytes.Add(uint64(len(data)))
	v.firstOnce.Do(func() { v.met.FirstResultSeconds.Observe(time.Since(v.opened)) })
	return sn, nil
}

// ChunkLengths derives every chunk's expansion length from the header
// without materializing a chunk, for engine.NewPositions: the event
// count for a monolithic artifact, and for a chunked one ChunkSize for
// every chunk but the last, which holds the rest. It reports false when
// the header cannot be right: the full chunks alone reach past the event
// count, or leave the last chunk more than ChunkSize events.
func (v *ArtifactView) ChunkLengths() ([]uint64, bool) {
	if !v.chunked {
		return []uint64{v.events}, true
	}
	if v.nchunks == 0 {
		return nil, v.events == 0
	}
	hi, full := bits.Mul64(uint64(v.nchunks-1), v.chunkSize)
	if hi != 0 || full >= v.events || v.events-full > v.chunkSize {
		return nil, false
	}
	lens := make([]uint64, v.nchunks)
	for i := range lens {
		lens[i] = v.chunkSize
	}
	lens[len(lens)-1] = v.events - full
	return lens, true
}

var _ engine.HeaderSource = (*ArtifactView)(nil)

// LengthError is the *ViewError of chunk i, which expands to got events
// where ChunkLengths stated another length.
func (v *ArtifactView) LengthError(i int, got uint64) error {
	lens, _ := v.ChunkLengths()
	return &ViewError{Chunk: i, Err: fmt.Errorf("wpp: chunk expands to %d events, the header states %d", got, lens[i])}
}

// Walk yields the full event trace in order, materializing one chunk at
// a time, stopping early if yield returns false. Unlike the eager
// artifacts' Walk it can fail: a corrupt chunk surfaces as a *ViewError
// instead of being undecodable at open time.
func (v *ArtifactView) Walk(yield func(trace.Event) bool) error { return walk(v, yield) }

// Verify is the eager artifacts' Verify on the view: the same grammar-
// time check, one chunk at a time across `workers` goroutines (<=0 means
// GOMAXPROCS), with no chunk kept after it is checked.
func (v *ArtifactView) Verify(workers int) error {
	_, err := check(&v.header, v, workers, false)
	return err
}

// VerifyArtifact is Verify plus the duplicate-digram count, and reports
// exactly what the decoded artifact's VerifyArtifact reports.
func (v *ArtifactView) VerifyArtifact(workers int) (VerifyReport, error) {
	return check(&v.header, v, workers, true)
}

// Stats is the eager artifacts' Stats, field for field, computed from
// the chunks across `workers` goroutines (<=0 means GOMAXPROCS).
// EncodedBytes is the viewed size.
func (v *ArtifactView) Stats(workers int) (Stats, error) {
	return statsOf(&v.header, v, workers, v.size)
}

// DistinctEvents lists the cost table's events in ascending order: on a
// verified artifact, exactly the distinct events of the trace.
func (v *ArtifactView) DistinctEvents() []trace.Event { return sortedCostEvents(v.costs) }

// chunks materializes every chunk grammar, in order, across a worker
// pool.
func (v *ArtifactView) chunks() ([]*sequitur.Snapshot, error) {
	chunks := make([]*sequitur.Snapshot, v.nchunks)
	err := engine.EachChunk(v, 0, func(i int, sn *sequitur.Snapshot) error {
		chunks[i] = sn
		return nil
	})
	return chunks, err
}

// WPP materializes the whole monolithic artifact. The result
// re-encodes to the original bytes, up to the end of its last grammar.
func (v *ArtifactView) WPP() (*WPP, error) {
	if v.chunked {
		return nil, fmt.Errorf("wpp: view is a %s, not a monolithic artifact", v.format)
	}
	chunks, err := v.chunks()
	if err != nil {
		return nil, err
	}
	return &WPP{
		Funcs:        v.funcs,
		Grammar:      chunks[0],
		Events:       v.events,
		Instructions: v.instructions,
		Version:      v.version,
		costs:        maps.Clone(v.costs),
	}, nil
}
