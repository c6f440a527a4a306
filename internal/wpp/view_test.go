package wpp

// The view parity suite holds ArtifactView, the package's only artifact
// parser, to refDecode, an independent streaming reference: the view
// answers every question identically on the same bytes, for all four
// formats, and corruption surfaces as typed errors at open or
// materialization — never as silent garbage.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/trace"
)

// goldenArtifacts loads every committed golden encoding keyed by file
// name.
func goldenArtifacts(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("..", "experiments", "testdata", "golden")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("golden corpus unavailable (regenerate with go test ./internal/experiments -run TestGoldenCorpus -update): %v", err)
	}
	out := map[string][]byte{}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = data
	}
	if len(out) == 0 {
		t.Fatal("golden corpus is empty")
	}
	return out
}

// collectWalk gathers a bounded prefix of a decoded artifact's trace.
func collectWalk(a Artifact) []trace.Event {
	var events []trace.Event
	a.Walk(func(e trace.Event) bool { events = append(events, e); return true })
	return events
}

// goldenFormats maps each golden file extension to the format name the
// view reports for it.
var goldenFormats = map[string]string{
	".wpp1": "monolithic WPP", ".wpp2": "monolithic WPP v2",
	".wpc1": "chunked WPP", ".wpc2": "chunked WPP v2",
}

// TestViewGoldenParity opens every golden artifact as a view and
// decodes it with the reference, and demands full agreement: header
// fields, verification, the expanded trace, per-chunk grammars, summary
// statistics, and a byte-identical re-encoding through Decode. The view
// and the decoded artifact must also return the same VerifyArtifact
// report, Stats and DistinctEvents, the last being the trace's distinct
// events in ascending order.
func TestViewGoldenParity(t *testing.T) {
	for name, data := range goldenArtifacts(t) {
		t.Run(name, func(t *testing.T) {
			a, err := refDecode(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("reference decode: %v", err)
			}
			v, err := NewView(data, nil)
			if err != nil {
				t.Fatalf("view open: %v", err)
			}
			defer v.Close()

			if want := goldenFormats[filepath.Ext(name)]; v.Format() != want {
				t.Errorf("Format = %q, want %q", v.Format(), want)
			}
			if v.NumEvents() != a.NumEvents() {
				t.Errorf("NumEvents = %d, reference %d", v.NumEvents(), a.NumEvents())
			}
			if v.TotalInstructions() != a.TotalInstructions() {
				t.Errorf("TotalInstructions = %d, reference %d", v.TotalInstructions(), a.TotalInstructions())
			}
			if v.DistinctPaths() != a.DistinctPaths() {
				t.Errorf("DistinctPaths = %d, reference %d", v.DistinctPaths(), a.DistinctPaths())
			}
			if v.Size() != int64(len(data)) {
				t.Errorf("Size = %d, file is %d bytes", v.Size(), len(data))
			}
			if err := a.Verify(1); err != nil {
				t.Fatalf("reference verify: %v", err)
			}
			if err := v.Verify(0); err != nil {
				t.Fatalf("view verify: %v", err)
			}

			if st, err := v.Stats(0); err != nil || st != a.Stats() {
				t.Errorf("Stats = %+v, %v; reference %+v", st, err, a.Stats())
			}
			var viewEvents []trace.Event
			if err := v.Walk(func(e trace.Event) bool { viewEvents = append(viewEvents, e); return true }); err != nil {
				t.Fatalf("view walk: %v", err)
			}
			if ref := collectWalk(a); !reflect.DeepEqual(viewEvents, ref) {
				t.Fatalf("walk diverges: view %d events, reference %d", len(viewEvents), len(ref))
			}
			for _, e := range viewEvents {
				if v.PathCost(e) == 0 {
					t.Fatalf("event %v has no cost in the view table", e)
				}
			}

			switch w := a.(type) {
			case *WPP:
				if v.Chunked() {
					t.Fatal("view reports chunked for a monolithic artifact")
				}
				if !reflect.DeepEqual(v.FuncTable(), w.Funcs) {
					t.Error("function tables diverge")
				}
				sn, err := v.Chunk(0)
				if err != nil {
					t.Fatalf("Chunk(0): %v", err)
				}
				if !reflect.DeepEqual(sn, w.Grammar) {
					t.Error("materialized grammar diverges from the reference decode")
				}
			case *ChunkedWPP:
				if !v.Chunked() {
					t.Fatal("view reports monolithic for a chunked artifact")
				}
				var raw []trace.Event
				w.Walk(func(e trace.Event) bool { raw = append(raw, e); return true })
				if st, want := w.Stats(), trace.EncodedSize(raw); st.RawTraceBytes != want {
					t.Errorf("RawTraceBytes = %d, expanded trace encodes to %d", st.RawTraceBytes, want)
				}
				if !reflect.DeepEqual(v.FuncTable(), w.Funcs) {
					t.Error("function tables diverge")
				}
				if v.NumChunks() != len(w.Chunks) {
					t.Fatalf("NumChunks = %d, reference %d", v.NumChunks(), len(w.Chunks))
				}
				if vs, err := v.Stats(1); err != nil || vs.ChunkSize != w.ChunkSize || vs.PeakLiveRHS != w.PeakLiveRHS {
					t.Errorf("chunk geometry diverges: size %d/%d peak %d/%d (%v)",
						vs.ChunkSize, w.ChunkSize, vs.PeakLiveRHS, w.PeakLiveRHS, err)
				}
				for i := range w.Chunks {
					sn, err := v.Chunk(i)
					if err != nil {
						t.Fatalf("Chunk(%d): %v", i, err)
					}
					if !reflect.DeepEqual(sn, w.Chunks[i]) {
						t.Errorf("chunk %d grammar diverges from the reference decode", i)
					}
				}
			}

			m, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			viewRep, viewErr := v.VerifyArtifact(2)
			if rep, err := m.VerifyArtifact(1); viewErr != nil || err != nil || viewRep != rep {
				t.Errorf("VerifyArtifact: view %+v, %v; decoded %+v, %v", viewRep, viewErr, rep, err)
			}
			if st, err := v.Stats(2); err != nil || st != m.Stats() {
				t.Errorf("Stats: view %+v, %v; decoded %+v", st, err, m.Stats())
			}
			// The verified cost table is the trace's distinct event set.
			walked := map[trace.Event]bool{}
			for _, e := range viewEvents {
				walked[e] = true
			}
			distinct := v.DistinctEvents()
			if !reflect.DeepEqual(distinct, m.DistinctEvents()) || len(distinct) != len(walked) ||
				!sort.SliceIsSorted(distinct, func(i, j int) bool { return distinct[i] < distinct[j] }) {
				t.Errorf("DistinctEvents: view %d, decoded %d, trace has %d", len(distinct), len(m.DistinctEvents()), len(walked))
			}
			var buf bytes.Buffer
			if _, err := m.Encode(&buf); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("Decode re-encoding differs from original bytes (%d vs %d)", buf.Len(), len(data))
			}
		})
	}
}

// TestViewMetricsCounts pins the instrumentation: opening and fully
// materializing an artifact moves the wpp_open_* counters.
func TestViewMetricsCounts(t *testing.T) {
	for name, data := range goldenArtifacts(t) {
		if !strings.HasSuffix(name, ".wpc1") {
			continue
		}
		vm := &ViewMetrics{}
		*vm = *NewViewMetrics(nil) // nil registry: no-op metrics must also be safe
		v, err := NewView(data, &ViewOptions{Metrics: vm})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Stats(0); err != nil {
			t.Fatal(err)
		}
		v.Close()
		break
	}
}

// TestViewPartsCorruptChunk simulates storage-layer corruption under a
// parts-backed view (the store path): the open succeeds — nothing has
// been read — and the analysis that touches the corrupt chunk gets a
// typed *ViewError, while intact chunks still materialize.
func TestViewPartsCorruptChunk(t *testing.T) {
	var c *ChunkedWPP
	for _, events := range testStreams() {
		if cand := buildChunkedFor(events, 64); len(cand.Chunks) >= 2 {
			c = cand
			break
		}
	}
	if c == nil {
		t.Fatal("no multi-chunk test stream")
	}
	var enc bytes.Buffer
	if _, err := c.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	whole, err := NewView(enc.Bytes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	header, chunks, err := whole.Parts()
	if err != nil {
		t.Fatal(err)
	}
	total := int64(len(header))
	loads := make([]ChunkLoad, len(chunks))
	for i, ch := range chunks {
		total += int64(len(ch))
		data := ch
		if i == 1 {
			// Truncate the chunk body: the framing scan inside
			// materialization must reject it.
			data = data[:len(data)-1]
		}
		loads[i] = func() ([]byte, func(), error) { return data, nil, nil }
	}
	v, err := NewViewParts(header, loads, total, nil)
	if err != nil {
		t.Fatalf("open must not touch chunk bytes, got: %v", err)
	}
	defer v.Close()

	if _, err := v.Chunk(0); err != nil {
		t.Fatalf("intact chunk 0: %v", err)
	}
	_, err = v.Chunk(1)
	var ve *ViewError
	if !errors.As(err, &ve) {
		t.Fatalf("corrupt chunk error = %v, want *ViewError", err)
	}
	if ve.Chunk != 1 {
		t.Fatalf("ViewError.Chunk = %d, want 1", ve.Chunk)
	}
	// The aggregate folds must refuse too, not skip the bad chunk.
	if err := v.Verify(0); !errors.As(err, &ve) {
		t.Fatalf("Verify = %v, want *ViewError", err)
	}
	if _, err := v.Stats(0); !errors.As(err, &ve) {
		t.Fatalf("Stats = %v, want *ViewError", err)
	}
	if _, err := v.VerifyArtifact(0); !errors.As(err, &ve) {
		t.Fatalf("VerifyArtifact = %v, want *ViewError", err)
	}
}

// TestViewFuncTableAllocBounded: the function table is sized by the
// bytes left, not by the count the header declares. The 8-byte header
// "WPP1" + uvarint 2^21 (also a FuzzViewParity and FuzzViewAnalyses
// seed) declares 2^21 functions and ends there; sizing the table by the
// count allocated ~50 MB before the missing name length failed the open.
func TestViewFuncTableAllocBounded(t *testing.T) {
	data := []byte("WPP1\x80\x80\x80\x01")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewView(data, nil)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "name length") {
		t.Fatalf("NewView = %v, want a name-length error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("NewView on %d bytes allocated %d bytes, want at most 1 MiB", len(data), got)
	}
}

// TestViewCorruptFileTypedErrors pins the other half of the
// no-silent-garbage guarantee for self-contained byte views: header
// corruption is rejected at open, and framing corruption inside the
// chunk region — which the header-only open deliberately never reads —
// surfaces as a typed *ViewError from every materializing entry point.
func TestViewCorruptFileTypedErrors(t *testing.T) {
	for name, data := range goldenArtifacts(t) {
		if !strings.HasSuffix(name, ".wpc1") && !strings.HasSuffix(name, ".wpp1") {
			continue
		}
		// Truncating into the function table breaks the header parse.
		if _, err := NewView(data[:8], nil); err == nil {
			t.Errorf("%s: truncated header opened cleanly", name)
		}
		corrupt := append([]byte{}, data...)
		corrupt = corrupt[:len(corrupt)-1] // truncate the final grammar
		v, err := NewView(corrupt, nil)
		if err != nil {
			t.Fatalf("%s: open reads only the header, got: %v", name, err)
		}
		var ve *ViewError
		if err := v.Verify(0); !errors.As(err, &ve) {
			t.Errorf("%s: Verify = %v, want *ViewError", name, err)
		}
		if _, err := Decode(corrupt); !errors.As(err, &ve) {
			t.Errorf("%s: Decode = %v, want *ViewError", name, err)
		}
		if err := v.Walk(func(trace.Event) bool { return true }); !errors.As(err, &ve) {
			t.Errorf("%s: Walk = %v, want *ViewError", name, err)
		}
		v.Close()
	}
}

// TestViewWrongKind pins the typed mismatch errors on the materializing
// accessors.
func TestViewWrongKind(t *testing.T) {
	arts := goldenArtifacts(t)
	for name, data := range arts {
		v, err := NewView(data, nil)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		_, chunked := a.(*ChunkedWPP)
		if strings.Contains(name, ".wpc") {
			if _, err := v.WPP(); err == nil {
				t.Errorf("%s: WPP() succeeded on a chunked view", name)
			}
			if !chunked {
				t.Errorf("%s: Decode returned %T, want *ChunkedWPP", name, a)
			}
		} else {
			if _, err := v.WPP(); err != nil {
				t.Errorf("%s: WPP() failed: %v", name, err)
			}
			if chunked {
				t.Errorf("%s: Decode returned a *ChunkedWPP for a monolithic view", name)
			}
		}
		v.Close()
	}
}

// FuzzViewParity holds the view to the streaming reference decoder on
// arbitrary bytes: if the reference accepts the input, the view must
// accept it, agree on every observable, and re-encode the same bytes;
// if the reference rejects it, the view must reject it at open or at
// materialization — it may defer the error, but never swallow it. The
// view and the decoded artifact must also agree on VerifyArtifact: the
// same report, or both fail.
func FuzzViewParity(f *testing.F) {
	dir := filepath.Join("..", "experiments", "testdata", "golden")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte("WPP1"))
	f.Add([]byte("WPC2"))
	f.Add([]byte{})
	// Well framed, but rule 1 references itself: both sides must refuse.
	f.Add([]byte{'W', 'P', 'P', '1', 1, 1, 'f', 0, 8, 8, 2, 0, 1, 1, 1, 'S', 'Q', 'G', '1', 2, 2, 3, 3, 2, 0, 3})
	f.Add(grammarCountsBeyondBytes)
	for _, s := range costCountsBeyondBytes {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := refDecode(bytes.NewReader(data))
		v, viewErr := NewView(data, nil)
		if refErr != nil {
			// Open may succeed (it reads only the header), but then
			// materializing everything must fail.
			if viewErr == nil {
				v.Close()
				if _, err := Decode(data); err == nil {
					t.Fatalf("reference decode failed (%v) but Decode succeeded", refErr)
				}
			}
			return
		}
		if viewErr != nil {
			t.Fatalf("reference decode succeeded but view open failed: %v", viewErr)
		}
		defer v.Close()
		if v.NumEvents() != ref.NumEvents() || v.TotalInstructions() != ref.TotalInstructions() ||
			v.DistinctPaths() != ref.DistinctPaths() {
			t.Fatal("view header disagrees with reference decode")
		}
		m, err := Decode(data)
		if err != nil {
			t.Fatalf("reference decode succeeded but Decode failed: %v", err)
		}
		viewRep, viewErr := v.VerifyArtifact(2)
		rep, err := m.VerifyArtifact(1)
		if (viewErr == nil) != (err == nil) || (err == nil && viewRep != rep) {
			t.Fatalf("VerifyArtifact diverges: view %+v, %v; decoded %+v, %v", viewRep, viewErr, rep, err)
		}
		var a, b bytes.Buffer
		if _, err := ref.Encode(&a); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("materialized view re-encodes differently from reference decode")
		}
	})
}

// TestViewFileTruncatedWhileMapped truncates a mapped artifact file
// under an open view: the next read of its chunk bytes must fail with a
// *ViewError instead of killing the process with SIGBUS.
func TestViewFileTruncatedWhileMapped(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("views map files only on linux")
	}
	path := filepath.Join(t.TempDir(), "compress.wpc2")
	if err := os.WriteFile(path, goldenArtifacts(t)["compress.wpc2"], 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := OpenViewFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	var ve *ViewError
	if err := v.Walk(func(trace.Event) bool { return true }); !errors.As(err, &ve) {
		t.Fatalf("Walk = %v, want *ViewError", err)
	}
	if err := v.Verify(2); !errors.As(err, &ve) {
		t.Fatalf("Verify = %v, want *ViewError", err)
	}
}
