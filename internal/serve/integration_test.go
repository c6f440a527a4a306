package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/hotpath"
	"repro/internal/obsv"
	"repro/internal/trace"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// newTestServer builds a daemon on an httptest listener with the given
// config and returns a client for it.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, NewClient(ts.URL)
}

// captures memoizes workload runs across tests (the interpreter run is
// the expensive part, not the protocol).
var captureCache = map[string]*experiments.Capture{}

func capture(t *testing.T, name string) *experiments.Capture {
	t.Helper()
	if c, ok := captureCache[name]; ok {
		return c
	}
	c, err := experiments.CaptureWorkload(name, experiments.Small)
	if err != nil {
		t.Fatalf("capturing %s: %v", name, err)
	}
	captureCache[name] = c
	return c
}

// localBuild is the batch-pipeline reference: the bytes `wppbuild
// -workload` would write for the same capture and options.
func localBuild(t *testing.T, c *experiments.Capture, chunk uint64, format uint8) []byte {
	t.Helper()
	b := iwpp.New(c.Names, c.Nums, iwpp.BuildOptions{ChunkSize: chunk})
	b.AddBatch(c.Events)
	a := b.Finish(c.Instructions)
	iwpp.SetVersion(a, format)
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatalf("encoding reference artifact: %v", err)
	}
	return buf.Bytes()
}

// stream pushes a capture through an open session in frames of batch
// events.
func stream(t *testing.T, c *Client, id string, events []trace.Event, batch int) {
	t.Helper()
	for off := 0; off < len(events); off += batch {
		end := min(off+batch, len(events))
		if _, err := c.Ingest(id, events[off:end]); err != nil {
			t.Fatalf("ingest frame at %d: %v", off, err)
		}
	}
}

// TestStreamedArtifactMatchesBatch is the core byte-identity guarantee:
// for every bundled workload, a session streamed over HTTP in frames
// seals to exactly the bytes the batch pipeline produces — same grammar,
// same costs, same encoding — for both build strategies and both
// formats.
func TestStreamedArtifactMatchesBatch(t *testing.T) {
	_, c := newTestServer(t, Config{})
	variants := []struct {
		name   string
		chunk  uint64
		format string
		fv     uint8
		batch  int
	}{
		{"mono-wpp1", 0, "", iwpp.FormatV1, 4096},
		{"mono-wpp2", 0, "wpp2", iwpp.FormatV2, 513},
		{"chunked-wpp1", 8192, "", iwpp.FormatV1, 1000},
	}
	for _, w := range workloads.All {
		cap := capture(t, w.Name)
		for _, v := range variants {
			t.Run(w.Name+"/"+v.name, func(t *testing.T) {
				want := localBuild(t, cap, v.chunk, v.fv)
				info, err := c.Open(OpenRequest{Workload: w.Name, Chunk: v.chunk, Format: v.format})
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				stream(t, c, info.ID, cap.Events, v.batch)
				res, err := c.Seal(info.ID, cap.Instructions)
				if err != nil {
					t.Fatalf("seal: %v", err)
				}
				if res.Events != uint64(len(cap.Events)) {
					t.Errorf("sealed %d events, streamed %d", res.Events, len(cap.Events))
				}
				sum := sha256.Sum256(want)
				if got := hex.EncodeToString(sum[:]); res.SHA256 != got {
					t.Errorf("seal SHA %s, local build %s", res.SHA256, got)
				}
				got, err := c.Artifact(info.ID)
				if err != nil {
					t.Fatalf("artifact: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("artifact differs from batch build: %d vs %d bytes", len(got), len(want))
				}
				if err := c.Evict(info.ID); err != nil {
					t.Fatalf("evict: %v", err)
				}
			})
		}
	}
}

// hotOptions mirrors wpphot's defaults so /hot comparisons are
// apples-to-apples.
var hotOptions = hotpath.Options{MinLen: 4, MaxLen: 16, Threshold: 0.001}

// TestSealedHotMatchesWpphot checks the sealed /hot endpoint returns
// exactly what wpphot computes on the artifact file: same subpaths, same
// order, same counts, costs, and fractions.
func TestSealedHotMatchesWpphot(t *testing.T) {
	_, c := newTestServer(t, Config{})
	for _, name := range []string{"matrix", "compress", "queens"} {
		t.Run(name, func(t *testing.T) {
			cap := capture(t, name)
			info, err := c.Open(OpenRequest{Workload: name})
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			stream(t, c, info.ID, cap.Events, 4096)
			if _, err := c.Seal(info.ID, cap.Instructions); err != nil {
				t.Fatalf("seal: %v", err)
			}

			// What wpphot computes: decode the artifact, run hotpath.Find.
			enc, err := c.Artifact(info.ID)
			if err != nil {
				t.Fatalf("artifact: %v", err)
			}
			a, err := iwpp.Decode(enc)
			if err != nil {
				t.Fatalf("decoding artifact: %v", err)
			}
			want, err := hotpath.Find(a.(*iwpp.WPP), hotOptions, 1)
			if err != nil {
				t.Fatalf("hotpath.Find: %v", err)
			}

			got, err := c.Hot(info.ID, HotQuery{
				K: -1, MinLen: hotOptions.MinLen, MaxLen: hotOptions.MaxLen, Threshold: hotOptions.Threshold,
			})
			if err != nil {
				t.Fatalf("hot: %v", err)
			}
			if !got.Sealed {
				t.Errorf("query after seal reported live")
			}
			if len(got.Subpaths) != len(want) {
				t.Fatalf("server returned %d subpaths, wpphot %d", len(got.Subpaths), len(want))
			}
			for i, ws := range want {
				gs := got.Subpaths[i]
				if gs.Count != ws.Count || gs.Cost != ws.Cost || gs.Fraction != ws.Fraction {
					t.Errorf("subpath %d: got (%d,%d,%g) want (%d,%d,%g)",
						i, gs.Count, gs.Cost, gs.Fraction, ws.Count, ws.Cost, ws.Fraction)
				}
				if len(gs.Raw) != len(ws.Events) {
					t.Fatalf("subpath %d: got %d events want %d", i, len(gs.Raw), len(ws.Events))
				}
				for j, e := range ws.Events {
					if gs.Raw[j] != uint64(e) {
						t.Errorf("subpath %d event %d: got %d want %d", i, j, gs.Raw[j], uint64(e))
					}
				}
			}
		})
	}
}

// TestLiveHotMatchesPrefixBuild checks mid-stream /hot equals running the
// analysis on a batch build of exactly the streamed prefix.
func TestLiveHotMatchesPrefixBuild(t *testing.T) {
	_, c := newTestServer(t, Config{})
	cap := capture(t, "matrix")
	info, err := c.Open(OpenRequest{Workload: "matrix"})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	cut := len(cap.Events) / 2
	stream(t, c, info.ID, cap.Events[:cut], 4096)

	got, err := c.Hot(info.ID, HotQuery{K: -1, MinLen: 4, MaxLen: 16, Threshold: 0.001})
	if err != nil {
		t.Fatalf("live hot: %v", err)
	}
	if got.Sealed {
		t.Errorf("mid-stream query reported sealed")
	}
	if got.Events != uint64(cut) {
		t.Errorf("live snapshot covers %d events, streamed %d", got.Events, cut)
	}

	// Reference: a local mono build of the same prefix, analyzed with the
	// same live denominator (total path cost, since no instruction count
	// exists before seal).
	b := iwpp.NewMonoBuilder(cap.Names, cap.Nums)
	b.AddBatch(cap.Events[:cut])
	ref := b.SnapshotWPP()
	want, err := hotpath.Find(ref, hotpath.Options{MinLen: 4, MaxLen: 16, Threshold: 0.001}, 1)
	if err != nil {
		t.Fatalf("hotpath.Find on prefix: %v", err)
	}
	if len(got.Subpaths) != len(want) {
		t.Fatalf("live query returned %d subpaths, prefix build %d", len(got.Subpaths), len(want))
	}
	for i, ws := range want {
		gs := got.Subpaths[i]
		if gs.Count != ws.Count || gs.Cost != ws.Cost || gs.Fraction != ws.Fraction {
			t.Errorf("subpath %d: got (%d,%d,%g) want (%d,%d,%g)",
				i, gs.Count, gs.Cost, gs.Fraction, ws.Count, ws.Cost, ws.Fraction)
		}
	}

	// The session must still seal to the full-trace artifact afterwards:
	// live snapshots are reads, not forks.
	stream(t, c, info.ID, cap.Events[cut:], 4096)
	res, err := c.Seal(info.ID, cap.Instructions)
	if err != nil {
		t.Fatalf("seal after live query: %v", err)
	}
	sum := sha256.Sum256(localBuild(t, cap, 0, iwpp.FormatV1))
	if want := hex.EncodeToString(sum[:]); res.SHA256 != want {
		t.Errorf("artifact diverged after live query: %s vs %s", res.SHA256, want)
	}
}

// TestAnonymousSessionMatchesTraceBuild streams raw events with no
// workload binding and checks the artifact equals `wppbuild -trace` on
// the same stream (synthetic f0..fN names, unit costs).
func TestAnonymousSessionMatchesTraceBuild(t *testing.T) {
	_, c := newTestServer(t, Config{})
	cap := capture(t, "sort")
	info, err := c.Open(OpenRequest{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	stream(t, c, info.ID, cap.Events, 2048)
	res, err := c.Seal(info.ID, 0)
	if err != nil {
		t.Fatalf("seal: %v", err)
	}

	// wppbuild -trace: anonymous builder, synthetic names from max seen ID.
	var maxFn uint32
	for _, e := range cap.Events {
		if e.Func() > maxFn {
			maxFn = e.Func()
		}
	}
	b := iwpp.New(nil, nil, iwpp.BuildOptions{})
	b.AddBatch(cap.Events)
	a := b.Finish(0)
	names := make([]iwpp.FuncInfo, maxFn+1)
	for i := range names {
		names[i] = iwpp.FuncInfo{Name: fmt.Sprintf("f%d", i)}
	}
	a.(*iwpp.WPP).Funcs = names
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if want := hex.EncodeToString(sum[:]); res.SHA256 != want {
		t.Errorf("anonymous artifact %s, trace build %s", res.SHA256, want)
	}
}

// TestProtocolStatusCodes pins the error surface: each failure mode maps
// to its documented status.
func TestProtocolStatusCodes(t *testing.T) {
	reg := obsv.NewRegistry()
	met := NewMetrics(reg)
	_, c := newTestServer(t, Config{
		MaxSessions:  2,
		SessionQuota: 100,
		MaxBodyBytes: 2048,
		Metrics:      met,
	})
	cap := capture(t, "matrix")

	wantStatus := func(t *testing.T, err error, code int) {
		t.Helper()
		if !IsStatus(err, code) {
			t.Fatalf("got %v, want status %d", err, code)
		}
	}

	t.Run("unknown session 404", func(t *testing.T) {
		_, err := c.Ingest("s-999999", cap.Events[:1])
		wantStatus(t, err, http.StatusNotFound)
		_, err = c.Hot("nope", HotQuery{})
		wantStatus(t, err, http.StatusNotFound)
	})

	t.Run("unknown workload 400", func(t *testing.T) {
		_, err := c.Open(OpenRequest{Workload: "no-such-workload"})
		wantStatus(t, err, http.StatusBadRequest)
	})

	t.Run("bad format 400", func(t *testing.T) {
		_, err := c.Open(OpenRequest{Format: "wpp9"})
		wantStatus(t, err, http.StatusBadRequest)
	})

	info, err := c.Open(OpenRequest{Workload: "matrix"})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	id := info.ID

	t.Run("malformed frame 400", func(t *testing.T) {
		// An event with a high function ID encodes as a multi-byte varint,
		// so cutting its frame two bytes in is guaranteed mid-varint.
		wide, werr := trace.NewEvent(7, 0)
		if werr != nil {
			t.Fatal(werr)
		}
		for _, frame := range [][]byte{
			[]byte("WPPX junk"),                      // wrong magic
			[]byte("WP"),                             // magic cut short
			EncodeFrame([]trace.Event{wide})[:6],     // event cut mid-varint
			append([]byte("WPT1"), 0xff, 0xff, 0xff), // truncated varint tail
		} {
			_, err := c.IngestRaw(id, frame)
			wantStatus(t, err, http.StatusBadRequest)
		}
		// Event outside the workload's numbering universe: in-range for
		// the wire format, but no such function in the session's program.
		alien, aerr := trace.NewEvent(1000, 5)
		if aerr != nil {
			t.Fatal(aerr)
		}
		_, err := c.Ingest(id, []trace.Event{alien})
		wantStatus(t, err, http.StatusBadRequest)
		// The session is untouched by any of it.
		got, err := c.Info(id)
		if err != nil || got.Events != 0 {
			t.Fatalf("session dirtied by rejected frames: %+v, %v", got, err)
		}
	})

	t.Run("oversized frame 413", func(t *testing.T) {
		_, err := c.Ingest(id, cap.Events[:1000]) // >256 bytes encoded
		wantStatus(t, err, http.StatusRequestEntityTooLarge)
	})

	t.Run("quota 429", func(t *testing.T) {
		if _, err := c.Ingest(id, cap.Events[:80]); err != nil {
			t.Fatalf("first frame within quota: %v", err)
		}
		_, err := c.Ingest(id, cap.Events[80:130]) // would hit 130 > 100
		wantStatus(t, err, http.StatusTooManyRequests)
		got, _ := c.Info(id)
		if got.Events != 80 {
			t.Fatalf("quota rejection was not transactional: %d events", got.Events)
		}
	})

	t.Run("bad hot threshold 400", func(t *testing.T) {
		// NaN fails every comparison, so it must be refused outright
		// rather than slip past a range check and make every window hot.
		for _, th := range []float64{math.NaN(), 1.5, -0.1} {
			_, err := c.Hot(id, HotQuery{Threshold: th})
			wantStatus(t, err, http.StatusBadRequest)
		}
		if _, err := c.Hot(id, HotQuery{Threshold: 0.01}); err != nil {
			t.Fatalf("valid live hot query: %v", err)
		}
	})

	t.Run("artifact before seal 409", func(t *testing.T) {
		_, err := c.Artifact(id)
		wantStatus(t, err, http.StatusConflict)
	})

	t.Run("session table full 503", func(t *testing.T) {
		info2, err := c.Open(OpenRequest{})
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		_, err = c.Open(OpenRequest{})
		wantStatus(t, err, http.StatusServiceUnavailable)
		if err := c.Evict(info2.ID); err != nil {
			t.Fatalf("evict: %v", err)
		}
	})

	t.Run("double seal 409", func(t *testing.T) {
		if _, err := c.Seal(id, 0); err != nil {
			t.Fatalf("seal: %v", err)
		}
		_, err := c.Seal(id, 0)
		wantStatus(t, err, http.StatusConflict)
	})

	t.Run("ingest after seal 409", func(t *testing.T) {
		_, err := c.Ingest(id, cap.Events[:1])
		wantStatus(t, err, http.StatusConflict)
	})

	t.Run("evicted 404 on lookup", func(t *testing.T) {
		if err := c.Evict(id); err != nil {
			t.Fatalf("evict: %v", err)
		}
		_, err := c.Ingest(id, cap.Events[:1])
		wantStatus(t, err, http.StatusNotFound)
	})

	if n := met.IngestErrors.Value(); n == 0 {
		t.Errorf("rejected frames not counted: IngestErrors = 0")
	}
}

// TestChunkedLiveQueryConflicts pins the documented live-query policy:
// chunked sessions answer 409 while open and exactly after seal.
func TestChunkedLiveQueryConflicts(t *testing.T) {
	_, c := newTestServer(t, Config{})
	cap := capture(t, "matrix")
	info, err := c.Open(OpenRequest{Workload: "matrix", Chunk: 4096})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	stream(t, c, info.ID, cap.Events[:8192], 4096)
	if _, err := c.Hot(info.ID, HotQuery{}); !IsStatus(err, http.StatusConflict) {
		t.Fatalf("live query on chunked session: got %v, want 409", err)
	}
	stream(t, c, info.ID, cap.Events[8192:], 4096)
	if _, err := c.Seal(info.ID, cap.Instructions); err != nil {
		t.Fatalf("seal: %v", err)
	}
	res, err := c.Hot(info.ID, HotQuery{K: 5})
	if err != nil {
		t.Fatalf("sealed hot on chunked artifact: %v", err)
	}
	if !res.Sealed {
		t.Errorf("sealed chunked query reported live")
	}
}

// TestIdleEviction drives the janitor with an injected clock: idle
// sessions are evicted at the deadline, active ones survive, and evicted
// IDs answer 404 afterwards.
func TestIdleEviction(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { return clock }
	reg := obsv.NewRegistry()
	met := NewMetrics(reg)
	srv, c := newTestServer(t, Config{
		IdleTimeout: time.Minute,
		SweepEvery:  time.Hour, // janitor ticker irrelevant; we call Sweep
		Metrics:     met,
		Now:         now,
	})
	cap := capture(t, "matrix")

	idle, err := c.Open(OpenRequest{Workload: "matrix"})
	if err != nil {
		t.Fatal(err)
	}
	busy, err := c.Open(OpenRequest{Workload: "matrix"})
	if err != nil {
		t.Fatal(err)
	}

	clock = clock.Add(45 * time.Second)
	if _, err := c.Ingest(busy.ID, cap.Events[:100]); err != nil {
		t.Fatalf("keepalive ingest: %v", err)
	}
	if n := srv.Sweep(); n != 0 {
		t.Fatalf("sweep before deadline evicted %d sessions", n)
	}

	clock = clock.Add(30 * time.Second) // idle at 75s, busy at 30s
	if n := srv.Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d sessions, want 1", n)
	}
	if _, err := c.Info(idle.ID); !IsStatus(err, http.StatusNotFound) {
		t.Errorf("idle session still resident: %v", err)
	}
	if _, err := c.Ingest(busy.ID, cap.Events[100:200]); err != nil {
		t.Errorf("busy session evicted: %v", err)
	}
	if met.SessionsEvicted.Value() != 1 {
		t.Errorf("SessionsEvicted = %d, want 1", met.SessionsEvicted.Value())
	}
	if g := met.SessionsOpen.Value(); g != 1 {
		t.Errorf("SessionsOpen gauge = %d, want 1", g)
	}
}

// TestMetricsFlow checks the observability surface moves with traffic.
func TestMetricsFlow(t *testing.T) {
	reg := obsv.NewRegistry()
	met := NewMetrics(reg)
	_, c := newTestServer(t, Config{Metrics: met})
	cap := capture(t, "matrix")

	info, err := c.Open(OpenRequest{Workload: "matrix"})
	if err != nil {
		t.Fatal(err)
	}
	stream(t, c, info.ID, cap.Events, 8192)
	if _, err := c.Hot(info.ID, HotQuery{K: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Seal(info.ID, cap.Instructions); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if got := s.Counters["serve_events_ingested_total"]; got != uint64(len(cap.Events)) {
		t.Errorf("events_ingested = %d, want %d", got, len(cap.Events))
	}
	if s.Counters["serve_sessions_opened_total"] != 1 || s.Counters["serve_sessions_sealed_total"] != 1 {
		t.Errorf("session lifecycle counters wrong: %+v", s.Counters)
	}
	if s.Counters["serve_hot_queries_total"] != 1 {
		t.Errorf("hot_queries = %d, want 1", s.Counters["serve_hot_queries_total"])
	}
	if s.Counters["serve_artifact_bytes_total"] == 0 {
		t.Errorf("artifact_bytes stayed 0 after seal")
	}
	if s.Histograms["serve_ingest_seconds"].Count == 0 {
		t.Errorf("ingest latency histogram empty")
	}
}
