package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/obsv"
	"repro/internal/sequitur"
	"repro/internal/trace"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
)

func newTestStore(t *testing.T) (*Store, *Metrics) {
	t.Helper()
	met := NewMetrics(obsv.NewRegistry())
	s, err := Open(t.TempDir(), met)
	if err != nil {
		t.Fatal(err)
	}
	return s, met
}

// syntheticEvents is a deterministic branchy stream: enough structure
// for sequitur to find rules, enough variety for multiple chunks.
func syntheticEvents(n int) []trace.Event {
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.MakeEvent(uint32(i%7), uint64((i*i)%23))
	}
	return events
}

// buildChunked compresses events through the real parallel pipeline,
// with a function table covering every function the events name.
func buildChunked(t *testing.T, events []trace.Event, chunkSize uint64) *iwpp.ChunkedWPP {
	t.Helper()
	var names []string
	for _, e := range events {
		for int(e.Func()) >= len(names) {
			names = append(names, fmt.Sprintf("f%d", len(names)))
		}
	}
	b := iwpp.New(names, nil, iwpp.BuildOptions{ChunkSize: chunkSize, Workers: 2})
	b.AddBatch(events)
	a := b.Finish(uint64(len(events)))
	c, ok := a.(*iwpp.ChunkedWPP)
	if !ok {
		t.Fatalf("expected chunked artifact, got %T", a)
	}
	return c
}

func TestObjectRoundTripAndDedup(t *testing.T) {
	s, met := newTestStore(t)
	data := []byte("the quick brown fox")
	h, fresh, err := s.PutObject(data)
	if err != nil {
		t.Fatal(err)
	}
	if !fresh {
		t.Fatal("first put reported dedup")
	}
	if _, err := os.Stat(s.objectPath(h)); err != nil {
		t.Fatalf("object file missing after put: %v", err)
	}
	got, err := s.GetObject(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("GetObject returned %q", got)
	}
	h2, fresh2, err := s.PutObject(data)
	if err != nil {
		t.Fatal(err)
	}
	if fresh2 || h2 != h {
		t.Fatalf("second put: fresh=%v hash=%s (want dedup of %s)", fresh2, h2, h)
	}
	if met.ObjectsDeduped.Value() != 1 || met.ObjectsWritten.Value() != 1 {
		t.Fatalf("counters: written=%d deduped=%d", met.ObjectsWritten.Value(), met.ObjectsDeduped.Value())
	}
}

func TestCorruptObjectIsTypedError(t *testing.T) {
	s, met := newTestStore(t)
	h, _, err := s.PutObject([]byte("payload under test"))
	if err != nil {
		t.Fatal(err)
	}
	p := s.objectPath(h)
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xff
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.GetObject(h)
	var ce *CorruptObjectError
	if !errors.As(err, &ce) {
		t.Fatalf("GetObject on corrupt object: %v (want *CorruptObjectError)", err)
	}
	if ce.Want != h || ce.Got == h {
		t.Fatalf("corrupt error hashes: want=%s got=%s", ce.Want, ce.Got)
	}
	if met.CorruptObjects.Value() == 0 {
		t.Fatal("CorruptObjects counter not incremented")
	}
}

// TestPutObjectRepairsSameSizeCorruption: an object file corrupted in
// place at its own size is not a dedup hit. Putting the same content
// again rewrites it, counts it as corrupt, and the object reads back.
func TestPutObjectRepairsSameSizeCorruption(t *testing.T) {
	s, met := newTestStore(t)
	data := []byte("payload under repair")
	h, _, err := s.PutObject(data)
	if err != nil {
		t.Fatal(err)
	}
	p := s.objectPath(h)
	bad := bytes.Clone(data)
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	h2, fresh, err := s.PutObject(data)
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h || !fresh {
		t.Fatalf("repair put: fresh=%v hash=%s, want a rewrite of %s", fresh, h2, h)
	}
	got, err := s.GetObject(h)
	if err != nil {
		t.Fatalf("GetObject after repair: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("GetObject after repair returned %q", got)
	}
	if met.CorruptObjects.Value() != 1 || met.ObjectsDeduped.Value() != 0 || met.ObjectsWritten.Value() != 2 {
		t.Fatalf("counters: corrupt=%d deduped=%d written=%d, want 1, 0, 2",
			met.CorruptObjects.Value(), met.ObjectsDeduped.Value(), met.ObjectsWritten.Value())
	}
}

// TestGoldenCorpusRoundTrip pins the tentpole property: every committed
// golden artifact, stored and read back, is byte-identical — both the
// whole-buffer Get path and the streaming reader.
func TestGoldenCorpusRoundTrip(t *testing.T) {
	dir := filepath.Join("..", "experiments", "testdata", "golden")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading golden corpus: %v", err)
	}
	s, _ := newTestStore(t)
	n := 0
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, ".wpp1") && !strings.HasSuffix(name, ".wpp2") &&
			!strings.HasSuffix(name, ".wpc1") && !strings.HasSuffix(name, ".wpc2") {
			continue
		}
		n++
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h, m, err := s.PutArtifactBytes(data)
		if err != nil {
			t.Fatalf("%s: put: %v", name, err)
		}
		if h != HashOf(data) {
			t.Fatalf("%s: artifact hash is not the content hash", name)
		}
		chunked := strings.HasSuffix(name, ".wpc1") || strings.HasSuffix(name, ".wpc2")
		if chunked && m.Kind != "chunked" {
			t.Fatalf("%s: kind %q", name, m.Kind)
		}
		if chunked {
			v, err := iwpp.NewView(data, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Parts) != 1+v.NumChunks() {
				t.Fatalf("%s: chunked manifest with %d parts for %d chunks", name, len(m.Parts), v.NumChunks())
			}
		}
		got, err := s.GetArtifact(h)
		if err != nil {
			t.Fatalf("%s: get: %v", name, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%s: GetArtifact diverges from committed bytes", name)
		}
		r, size, err := s.ArtifactReader(h)
		if err != nil {
			t.Fatalf("%s: reader: %v", name, err)
		}
		streamed, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("%s: stream: %v", name, err)
		}
		r.Close()
		if size != int64(len(data)) || !bytes.Equal(streamed, data) {
			t.Errorf("%s: streamed read diverges (size %d vs %d)", name, size, len(data))
		}
	}
	if n == 0 {
		t.Fatal("no artifacts in the golden corpus")
	}
}

// TestChunkDedupAcrossArtifacts stores two different artifacts built
// from the same stream prefix and checks that the shared chunk grammars
// are stored once: genuine cross-artifact chunk-level dedup, not
// whole-artifact short-circuiting.
func TestChunkDedupAcrossArtifacts(t *testing.T) {
	s, met := newTestStore(t)
	const chunk = 256
	events := syntheticEvents(8 * chunk)
	short := buildChunked(t, events[:6*chunk], chunk)
	long := buildChunked(t, events, chunk)
	h1, m1, err := s.PutArtifact(short)
	if err != nil {
		t.Fatal(err)
	}
	h2, m2, err := s.PutArtifact(long)
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("distinct artifacts hashed equal")
	}
	if met.ObjectsDeduped.Value() < 6 {
		t.Fatalf("expected >=6 deduped chunk objects, counter says %d", met.ObjectsDeduped.Value())
	}
	// The first six chunk objects must be literally shared (same hash).
	for i := 1; i <= 6; i++ {
		if m1.Parts[i] != m2.Parts[i] {
			t.Fatalf("chunk %d not shared: %s vs %s", i-1, m1.Parts[i], m2.Parts[i])
		}
	}
	for _, h := range []Hash{h1, h2} {
		if _, err := s.GetArtifact(h); err != nil {
			t.Fatalf("artifact %s unreadable after dedup: %v", h, err)
		}
	}
}

// TestRepeatedRunDedup is the acceptance-criteria scenario: two
// separate builds of the same workload produce identical artifacts, and
// the second store operation dedups every chunk instead of re-storing.
func TestRepeatedRunDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale workload build")
	}
	s, met := newTestStore(t)
	const chunk = 1024
	run := func() iwpp.Artifact {
		a, err := BuildWorkloadArtifact(mustWorkloadSource(t, "expr"), []int64{mustWorkloadArg(t, "expr", "medium")}, chunk, 2)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	h1, m1, err := s.PutArtifact(run())
	if err != nil {
		t.Fatal(err)
	}
	before := met.ObjectsWritten.Value()
	h2, _, err := s.PutArtifact(run())
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("repeated runs produced different artifacts: %s vs %s", h1, h2)
	}
	if met.ObjectsWritten.Value() != before {
		t.Fatalf("second run wrote %d new objects", met.ObjectsWritten.Value()-before)
	}
	if met.ObjectsDeduped.Value() < 1 {
		t.Fatal("no chunk objects deduped across runs")
	}
	if len(m1.Parts) < 3 {
		t.Fatalf("medium-scale build produced only %d parts", len(m1.Parts))
	}
}

func TestFindArtifact(t *testing.T) {
	s, _ := newTestStore(t)
	data, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", "golden", goldenName(t)))
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := s.PutArtifactBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.FindArtifact(h.String()[:8])
	if err != nil || got != h {
		t.Fatalf("FindArtifact(%s) = %s, %v", h.String()[:8], got, err)
	}
	if _, err := s.FindArtifact("ab"); err == nil {
		t.Fatal("short prefix accepted")
	}
	if _, err := s.FindArtifact("ffffffff"); !errors.Is(err, ErrNotFound) && err == nil {
		t.Fatal("unknown prefix found something")
	}
}

// goldenName returns one committed golden artifact file name.
func goldenName(t *testing.T) string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join("..", "experiments", "testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".wpc2") {
			return ent.Name()
		}
	}
	t.Fatal("no .wpc2 golden artifact")
	return ""
}

func mustWorkloadSource(t *testing.T, name string) string {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Source
}

func mustWorkloadArg(t *testing.T, name, scale string) int64 {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	arg, err := scaleArgFor(w, scale)
	if err != nil {
		t.Fatal(err)
	}
	return arg
}

// TestPutArtifactEncodedChecksHeader hands PutArtifactEncoded an
// encoding that is not the artifact's: the put must fail and store
// nothing.
func TestPutArtifactEncodedChecksHeader(t *testing.T) {
	s, _ := newTestStore(t)
	build := func(n int, chunk uint64) (iwpp.Artifact, []byte) {
		b := iwpp.New([]string{"f"}, nil, iwpp.BuildOptions{ChunkSize: chunk})
		for i := 0; i < n; i++ {
			b.Add(trace.MakeEvent(0, uint64(i%5)))
		}
		a := b.Finish(uint64(n))
		var buf bytes.Buffer
		if _, err := a.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return a, buf.Bytes()
	}
	mono, monoEnc := build(100, 0)
	chunked, chunkedEnc := build(100, 16)
	_, otherEnc := build(120, 16)
	for _, c := range []struct {
		name string
		a    iwpp.Artifact
		enc  []byte
	}{
		{"chunked bytes for a monolithic artifact", mono, chunkedEnc},
		{"monolithic bytes for a chunked artifact", chunked, monoEnc},
		{"another artifact's bytes", chunked, otherEnc},
	} {
		if _, _, err := s.PutArtifactEncoded(c.a, c.enc); err == nil {
			t.Errorf("%s: put succeeded", c.name)
		}
		if _, err := s.Manifest(HashOf(c.enc)); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: manifest recorded (%v)", c.name, err)
		}
	}
	if _, _, err := s.PutArtifactEncoded(chunked, chunkedEnc); err != nil {
		t.Fatalf("matching encoding refused: %v", err)
	}
}

// TestPutArtifactBytesRefusesCorruptChunk hands PutArtifactBytes
// chunked artifacts whose header opens but one of whose chunks cannot
// materialize: a chunk cut short, a chunk whose rule references itself,
// and a v2 chunk whose terminal ranks past the dictionary. Each put must
// fail and record nothing.
func TestPutArtifactBytesRefusesCorruptChunk(t *testing.T) {
	s, _ := newTestStore(t)
	good := buildChunked(t, syntheticEvents(300), 64)
	var enc bytes.Buffer
	if _, err := good.Encode(&enc); err != nil {
		t.Fatal(err)
	}
	// The last chunk's rule 1 references itself.
	cyclic := *good
	cyclic.Chunks = slices.Clone(good.Chunks)
	cyclic.Chunks[len(cyclic.Chunks)-1] = &sequitur.Snapshot{Rules: [][]sequitur.Sym{
		{{Rule: 1}},
		{{Rule: 1}, {Rule: -1, Value: uint64(good.DistinctEvents()[0])}},
	}}
	var cyclicEnc bytes.Buffer
	if _, err := cyclic.Encode(&cyclicEnc); err != nil {
		t.Fatal(err)
	}
	// A WPC2 with a one-entry dictionary whose one chunk writes ranks 0
	// and 5.
	rankPast := []byte{'W', 'P', 'C', '2', 1, 1, 'f', 0, 4, 2, 2, 0, 1, 0, 1, 1, 'S', 'Q', 'G', '1', 1, 2, 0, 10}
	for _, c := range []struct {
		name string
		enc  []byte
	}{
		{"last chunk cut short", enc.Bytes()[:enc.Len()-1]},
		{"cyclic chunk", cyclicEnc.Bytes()},
		{"rank past the dictionary", rankPast},
	} {
		if _, err := iwpp.NewView(c.enc, nil); err != nil {
			t.Fatalf("%s: header does not open (%v); the case must corrupt a chunk", c.name, err)
		}
		if _, _, err := s.PutArtifactBytes(c.enc); err == nil {
			t.Errorf("%s: put succeeded", c.name)
		}
		if _, err := s.Manifest(HashOf(c.enc)); !errors.Is(err, ErrNotFound) {
			t.Errorf("%s: manifest recorded (%v)", c.name, err)
		}
	}
	if _, _, err := s.PutArtifactBytes(enc.Bytes()); err != nil {
		t.Fatalf("intact artifact refused: %v", err)
	}
}

// TestManifestSizeMismatch rewrites the size in a blob and a chunked
// manifest to values its parts do not hold, from far past any buffer to
// one byte short. GetArtifact, OpenView and ArtifactReader must each
// fail with a *SizeError, before allocating for the false size.
func TestManifestSizeMismatch(t *testing.T) {
	s, _ := newTestStore(t)
	var mono bytes.Buffer
	b := iwpp.New([]string{"f0", "f1", "f2", "f3", "f4", "f5", "f6"}, nil, iwpp.BuildOptions{})
	b.AddBatch(syntheticEvents(500))
	if _, err := b.Finish(500).Encode(&mono); err != nil {
		t.Fatal(err)
	}
	blob, _, err := s.PutArtifactBytes(mono.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	chunked, _ := putChunked(t, s, 256)
	for _, h := range []Hash{blob, chunked} {
		m, err := s.Manifest(h)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int64{9000000000000000000, 1 << 34, m.Size + 1, m.Size - 1} {
			bad := *m
			bad.Size = size
			data, err := json.Marshal(&bad)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.manifestPath(h), data, 0o644); err != nil {
				t.Fatal(err)
			}
			var se *SizeError
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = s.GetArtifact(h)
			runtime.ReadMemStats(&after)
			if !errors.As(err, &se) || se.Size != size || se.Parts != m.Size {
				t.Errorf("%s size %d: GetArtifact error = %v, want a *SizeError of %d against %d", m.Kind, size, err, size, m.Size)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20+4*uint64(m.Size) {
				t.Errorf("%s size %d: GetArtifact allocated %d bytes for a %d-byte artifact", m.Kind, size, alloc, m.Size)
			}
			if v, err := s.OpenView(h, nil); !errors.As(err, &se) {
				if err == nil {
					v.Close()
				}
				t.Errorf("%s size %d: OpenView error = %v, want a *SizeError", m.Kind, size, err)
			}
			if r, _, err := s.ArtifactReader(h); !errors.As(err, &se) {
				if err == nil {
					r.Close()
				}
				t.Errorf("%s size %d: ArtifactReader error = %v, want a *SizeError", m.Kind, size, err)
			}
		}
	}
}
