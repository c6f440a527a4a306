package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

// putChunked stores a chunked artifact and returns its hash plus the
// full encoding for comparison.
func putChunked(t *testing.T, s *Store, chunkSize uint64) (Hash, []byte) {
	t.Helper()
	c := buildChunked(t, syntheticEvents(4000), chunkSize)
	var buf bytes.Buffer
	if _, err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	h, m, err := s.PutArtifactEncoded(c, buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != "chunked" {
		t.Fatalf("manifest kind %q, want chunked", m.Kind)
	}
	return h, buf.Bytes()
}

// TestOpenViewParity: blob and chunked store views must agree with the
// eager decode of the stored bytes on every header field (format,
// function table, costs, instructions, chunk geometry), on stats and
// the artifact check's report, and on walks and grammars.
func TestOpenViewParity(t *testing.T) {
	s, _ := newTestStore(t)

	// Chunked artifact: header object + one object per chunk.
	ch, _ := putChunked(t, s, 256)
	// Blob artifact: the same trace monolithic.
	w := iwpp.New(nil, nil, iwpp.BuildOptions{})
	for _, e := range syntheticEvents(4000) {
		w.Add(e)
	}
	mono := w.Finish(4000)
	bh, m, err := s.PutArtifact(mono)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != "blob" {
		t.Fatalf("manifest kind %q, want blob", m.Kind)
	}

	for _, tc := range []struct {
		name string
		h    Hash
	}{{"chunked", ch}, {"blob", bh}} {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := s.GetArtifact(tc.h)
			if err != nil {
				t.Fatal(err)
			}
			eager, err := iwpp.Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			// Decode parses the header as a view does; re-encoding it
			// must give back the stored bytes, so every field the
			// comparisons below rely on was read right.
			var re bytes.Buffer
			if _, err := eager.Encode(&re); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re.Bytes(), enc) {
				t.Fatal("the decoded artifact re-encodes differently from the stored bytes")
			}
			v, err := s.OpenView(tc.h, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer v.Close()
			if v.NumEvents() != eager.NumEvents() || v.DistinctPaths() != eager.DistinctPaths() {
				t.Fatal("view header disagrees with eager decode")
			}
			if v.Size() != int64(len(enc)) {
				t.Fatalf("Size = %d, artifact is %d bytes", v.Size(), len(enc))
			}
			flat, err := iwpp.NewView(enc, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer flat.Close()
			if v.Format() != flat.Format() {
				t.Fatalf("Format = %q, the stored bytes are %q", v.Format(), flat.Format())
			}
			if !reflect.DeepEqual(v.FuncTable(), eager.FuncTable()) {
				t.Fatalf("function table %v, want %v", v.FuncTable(), eager.FuncTable())
			}
			if v.TotalInstructions() != eager.TotalInstructions() {
				t.Fatalf("TotalInstructions = %d, want %d", v.TotalInstructions(), eager.TotalInstructions())
			}
			if !reflect.DeepEqual(v.DistinctEvents(), eager.DistinctEvents()) {
				t.Fatal("distinct events differ from the eager decode's")
			}
			for _, e := range eager.DistinctEvents() {
				if v.PathCost(e) != eager.PathCost(e) {
					t.Fatalf("PathCost(%v) = %d, want %d", e, v.PathCost(e), eager.PathCost(e))
				}
			}
			st, err := v.Stats(0)
			if err != nil {
				t.Fatal(err)
			}
			if st != eager.Stats() {
				t.Fatalf("Stats = %+v, want %+v", st, eager.Stats())
			}
			rep, err := v.VerifyArtifact(0)
			if err != nil {
				t.Fatal(err)
			}
			if want, err := eager.VerifyArtifact(0); err != nil || rep != want {
				t.Fatalf("VerifyArtifact = %+v, want %+v (%v)", rep, want, err)
			}
			var got, want []trace.Event
			if err := v.Walk(func(e trace.Event) bool { got = append(got, e); return true }); err != nil {
				t.Fatal(err)
			}
			eager.Walk(func(e trace.Event) bool { want = append(want, e); return true })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("walk diverges: %d vs %d events", len(got), len(want))
			}
			for i := 0; i < v.NumChunks(); i++ {
				got, err := v.Chunk(i)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := eager.Chunk(i)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("chunk %d of the stored view differs from the eager artifact's", i)
				}
			}
		})
	}
}

// TestOpenViewCorruptChunkObject: corrupting one chunk object on disk
// leaves the open cheap and clean, and the analysis that touches the
// chunk gets *CorruptObjectError (inside *wpp.ViewError) — the store's
// no-unverified-bytes guarantee at chunk granularity.
func TestOpenViewCorruptChunkObject(t *testing.T) {
	s, met := newTestStore(t)
	h, _ := putChunked(t, s, 256)
	m, err := s.Manifest(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Parts) < 3 {
		t.Fatalf("need >= 2 chunk objects, have %d parts", len(m.Parts))
	}
	// Parts[0] is the header; corrupt the second chunk object.
	ph, err := ParseHash(m.Parts[2])
	if err != nil {
		t.Fatal(err)
	}
	path := s.objectPath(ph)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	v, err := s.OpenView(h, nil)
	if err != nil {
		t.Fatalf("open must not read chunk objects, got: %v", err)
	}
	defer v.Close()

	// The chunk before the corrupt one still materializes.
	if _, err := v.Chunk(0); err != nil {
		t.Fatalf("intact chunk: %v", err)
	}
	_, err = v.Chunk(1)
	var ve *iwpp.ViewError
	if !errors.As(err, &ve) {
		t.Fatalf("corrupt chunk error = %v, want *wpp.ViewError", err)
	}
	var ce *CorruptObjectError
	if !errors.As(err, &ce) {
		t.Fatalf("corrupt chunk error = %v, want wrapped *CorruptObjectError", err)
	}
	if met.CorruptObjects.Value() == 0 {
		t.Fatal("corruption not counted")
	}
	// Whole-view folds surface the same typed error, never garbage.
	if err := v.Verify(0); !errors.As(err, &ce) {
		t.Fatalf("Verify = %v, want *CorruptObjectError", err)
	}
	if _, err := v.Stats(0); !errors.As(err, &ce) {
		t.Fatalf("Stats = %v, want *CorruptObjectError", err)
	}
}

// TestOpenViewInputForms covers the three input shapes: a plain file, a
// @prefix ref, and a workload@scale ref (lazily built).
func TestOpenViewInputForms(t *testing.T) {
	s, _ := newTestStore(t)
	h, enc := putChunked(t, s, 512)

	// File path.
	dir := t.TempDir()
	fp := filepath.Join(dir, "a.wpc1")
	if err := os.WriteFile(fp, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	v, err := OpenViewInput(fp, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != int64(len(enc)) {
		t.Fatal("file view has wrong size")
	}
	v.Close()

	// Hash-prefix ref.
	v, err = OpenViewInput("@"+h.String()[:8], s.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumEvents() == 0 {
		t.Fatal("ref view is empty")
	}
	v.Close()

	// Ref with no store configured names the fix.
	if _, err := OpenViewInput("@"+h.String()[:8], "", nil); err == nil {
		t.Fatal("ref without store must fail")
	}

	// workload@scale ref builds on first use.
	v, err = OpenViewInput(workloads.Names()[0]+"@small", s.dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.NumEvents() == 0 {
		t.Fatal("built view is empty")
	}
	if err := v.Verify(0); err != nil {
		t.Fatal(err)
	}
	v.Close()
}
