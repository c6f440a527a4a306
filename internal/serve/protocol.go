// Package serve turns the batch WPP pipeline into a long-lived
// trace-ingestion daemon: many concurrent tracers each open a session,
// stream WPT1-encoded path events into a per-session wpp.Builder, query
// hot subpaths against the still-growing grammar, and seal the session
// into the same artifact bytes the batch tools produce.
//
// The wire protocol is plain HTTP + JSON, with event payloads in the raw
// trace encoding (magic "WPT1" followed by one uvarint per event — the
// same bytes wpptrace writes):
//
//	POST   /v1/sessions                  open a session
//	GET    /v1/sessions                  list resident sessions
//	GET    /v1/sessions/{id}             one session's state
//	POST   /v1/sessions/{id}/events      ingest one WPT1 batch frame
//	POST   /v1/sessions/{id}/seal        finalize; builds the artifact
//	GET    /v1/sessions/{id}/hot         hot-subpath query (live or sealed)
//	GET    /v1/sessions/{id}/artifact    sealed artifact bytes
//	DELETE /v1/sessions/{id}             evict the session
//	GET    /healthz                      liveness + session count
//
// Every error response is JSON {"error": "..."} with a meaningful status:
// 400 malformed events, 404 unknown session, 409 lifecycle conflicts
// (double seal, artifact before seal), 410 evicted mid-request, 413
// oversized frame, 429 per-session quota, 503 shed load (session table or
// ingest queue full).
package serve

// OpenRequest opens a session. All fields are optional: the zero value
// opens an anonymous monolithic session (no numberings, every path costs
// one — the streaming analog of `wppbuild -trace`). Naming a bundled
// workload compiles it server-side so the session carries the same
// function table and Ball–Larus numberings a local `wppbuild -workload`
// build would use; sealed artifacts are then byte-identical to the batch
// tool's output for the same event stream.
type OpenRequest struct {
	Workload string `json:"workload,omitempty"`
	// Scale is recorded for operators and echoed back; the server does
	// not need it (numberings depend only on the program).
	Scale string `json:"scale,omitempty"`
	// Chunk > 0 builds with the parallel chunked pipeline (WPC
	// artifacts); 0 builds one monolithic grammar, which also enables
	// live /hot queries.
	Chunk uint64 `json:"chunk,omitempty"`
	// Workers sizes a chunked session's compression pool. The daemon
	// clamps it to GOMAXPROCS (0 or less means GOMAXPROCS); the artifact
	// is byte-identical at every worker count.
	Workers int `json:"workers,omitempty"`
	// Format selects the on-disk encoding at seal: "wpp1" (default) or
	// "wpp2".
	Format string `json:"format,omitempty"`
}

// SessionInfo describes one resident session.
type SessionInfo struct {
	ID       string `json:"id"`
	State    string `json:"state"` // "open" or "sealed"
	Workload string `json:"workload,omitempty"`
	Scale    string `json:"scale,omitempty"`
	Chunk    uint64 `json:"chunk,omitempty"`
	Format   string `json:"format"`
	Events   uint64 `json:"events"`
}

// IngestResult acknowledges one events frame.
type IngestResult struct {
	// Accepted is the number of events in this frame (frames are
	// transactional: all events land or none do).
	Accepted uint64 `json:"accepted"`
	// Events is the session's running total.
	Events uint64 `json:"events"`
}

// SealRequest finalizes a session. Instructions is the executed
// IR-instruction total of the traced run; it is stored in the artifact
// header and becomes the denominator of hot-subpath fractions.
type SealRequest struct {
	Instructions uint64 `json:"instructions"`
}

// SealResult reports the sealed artifact.
type SealResult struct {
	Events        uint64 `json:"events"`
	DistinctPaths int    `json:"distinct_paths"`
	ArtifactBytes int64  `json:"artifact_bytes"`
	Format        string `json:"format"`
	// SHA256 is the hex digest of the artifact bytes, so remote clients
	// can assert byte-identity with a local build without downloading.
	SHA256 string `json:"sha256"`
}

// HotSubpath is one hot subpath in a HotResult, mirroring
// hotpath.Subpath with both rendered and raw event forms.
type HotSubpath struct {
	Events   []string `json:"events"` // rendered "func:path"
	Raw      []uint64 `json:"raw"`    // packed trace.Event values
	Count    uint64   `json:"count"`
	Cost     uint64   `json:"cost"`
	Fraction float64  `json:"fraction"`
}

// HotResult answers a hot-subpath query.
type HotResult struct {
	// Sealed reports whether the query ran against the sealed artifact
	// (exact, wpphot-identical) or a live snapshot of the growing
	// grammar.
	Sealed bool `json:"sealed"`
	// Events is the number of trace events covered by the answer.
	Events uint64 `json:"events"`
	// TotalCost is the fraction denominator: the client-supplied
	// instruction total once sealed, the cost-weighted trace length while
	// live.
	TotalCost uint64       `json:"total_cost"`
	Subpaths  []HotSubpath `json:"subpaths"`
}

// ListResult lists resident sessions.
type ListResult struct {
	Sessions []SessionInfo `json:"sessions"`
}

// Health is the /healthz body.
type Health struct {
	Status   string `json:"status"`
	Sessions int    `json:"sessions"`
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}
