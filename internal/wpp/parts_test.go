package wpp

import (
	"bytes"
	"strings"
	"testing"
)

// joinParts concatenates a view's header and chunk parts.
func joinParts(t *testing.T, v *ArtifactView) []byte {
	t.Helper()
	header, chunks, err := v.Parts()
	if err != nil {
		t.Fatalf("Parts: %v", err)
	}
	if len(chunks) != v.NumChunks() {
		t.Fatalf("%d parts for %d chunks", len(chunks), v.NumChunks())
	}
	return bytes.Join(append([][]byte{header}, chunks...), nil)
}

// TestViewPartsReassemble pins the property the content-addressed store
// relies on: the header and chunk parts a view splits from an encoding
// join back into it, for both format versions and a spread of chunk
// geometries.
func TestViewPartsReassemble(t *testing.T) {
	for name, events := range testStreams() {
		for _, cs := range []uint64{1, 64, 1 << 20} {
			for _, version := range []uint8{FormatV1, FormatV2} {
				c := buildChunkedFor(events, cs)
				c.Version = version
				var enc bytes.Buffer
				if _, err := c.Encode(&enc); err != nil {
					t.Fatalf("%s cs=%d v%d: %v", name, cs, version, err)
				}
				v, err := NewView(enc.Bytes(), nil)
				if err != nil {
					t.Fatalf("%s cs=%d v%d: %v", name, cs, version, err)
				}
				if got := joinParts(t, v); !bytes.Equal(got, enc.Bytes()) {
					t.Fatalf("%s cs=%d v%d: parts join to %d bytes, encoding is %d",
						name, cs, version, len(got), enc.Len())
				}
			}
		}
	}
	mono, err := NewView(encodeMonoBytes(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := mono.Parts(); err == nil {
		t.Fatal("a monolithic view split into parts")
	}
}

// TestViewPartsGoldenCorpus splits every committed chunked golden
// artifact and joins the parts back into the committed bytes.
func TestViewPartsGoldenCorpus(t *testing.T) {
	n := 0
	for name, data := range goldenArtifacts(t) {
		if !strings.Contains(name, ".wpc") {
			continue
		}
		n++
		v, err := NewView(data, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := joinParts(t, v); !bytes.Equal(got, data) {
			t.Errorf("%s: parts do not reassemble the committed bytes (%d vs %d)", name, len(got), len(data))
		}
	}
	if n == 0 {
		t.Fatal("no chunked artifacts in the golden corpus")
	}
}
