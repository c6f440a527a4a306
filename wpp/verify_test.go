package wpp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sequitur"
	"repro/internal/trace"
	iwpp "repro/internal/wpp"
)

// TestCheckRejectsMalformedArtifacts: artifacts whose grammars are well
// formed and whose expansion length matches the header, but which no
// builder produces, fail the one artifact check both on a view and
// through ReadProfile.
func TestCheckRejectsMalformedArtifacts(t *testing.T) {
	a, b := trace.MakeEvent(0, 0), trace.MakeEvent(0, 1)
	term := func(es ...trace.Event) []sequitur.Sym {
		rhs := make([]sequitur.Sym, len(es))
		for i, e := range es {
			rhs[i] = sequitur.Sym{Rule: -1, Value: uint64(e)}
		}
		return rhs
	}
	one := func(rules ...[]sequitur.Sym) *sequitur.Snapshot { return &sequitur.Snapshot{Rules: rules} }
	build := func(chunk uint64, es ...trace.Event) iwpp.Artifact {
		bld := iwpp.New([]string{"main"}, nil, iwpp.BuildOptions{ChunkSize: chunk, Workers: 1})
		bld.AddBatch(es)
		return bld.Finish(uint64(len(es)))
	}

	cases := []struct {
		name, want string
		art        iwpp.Artifact
	}{
		{"cost entry no grammar yields", "cost table", func() iwpp.Artifact {
			w := build(0, a, b).(*iwpp.WPP)
			w.Grammar = one(term(a, a)) // b keeps its cost entry
			return w
		}()},
		{"unreachable rule", "unreachable", func() iwpp.Artifact {
			w := build(0, a, b).(*iwpp.WPP)
			w.Grammar = one(term(a, b), term(a, b))
			return w
		}()},
		{"short non-last chunk", "declared chunk size is 2", func() iwpp.Artifact {
			c := build(2, a, b, a, b).(*iwpp.ChunkedWPP)
			c.Chunks = []*sequitur.Snapshot{one(term(a)), one(term(b, a)), one(term(b))} // 1+2+1 = 4 events
			return c
		}()},
		{"path ID beyond NumPaths", "outside [0,1)", func() iwpp.Artifact {
			w := build(0, a, b).(*iwpp.WPP)
			w.Funcs[0].NumPaths = 1 // b is path 1
			return w
		}()},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "-"), func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := tc.art.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			v, err := iwpp.NewView(buf.Bytes(), nil)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer v.Close()
			if err := v.Verify(0); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("view Verify(0) = %v, want an error containing %q", err, tc.want)
			}
			if _, err := ReadProfile(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ReadProfile = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
