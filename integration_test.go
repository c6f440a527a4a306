package repro_test

// End-to-end integration tests: every workload through the full public
// pipeline (compile -> profile -> persist -> reload -> analyze), with the
// invariants that tie the stages together checked at each seam.

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/hotpath"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/wlc"
	"repro/internal/workloads"
	iwpp "repro/internal/wpp"
	"repro/wpp"
)

func TestFullPipelineOnAllWorkloads(t *testing.T) {
	for _, w := range workloads.All {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			prog, err := wpp.Compile(w.Source)
			if err != nil {
				t.Fatal(err)
			}
			plain, plainStats, err := prog.Run([]int64{w.Small})
			if err != nil {
				t.Fatal(err)
			}
			profile, err := prog.Profile([]int64{w.Small})
			if err != nil {
				t.Fatal(err)
			}

			// Tracing must not perturb semantics or instruction counts.
			if profile.Result != plain {
				t.Fatalf("traced result %d != plain %d", profile.Result, plain)
			}
			if profile.Stats.Instructions != plainStats.Instructions {
				t.Fatalf("instruction counts differ under tracing")
			}

			// The WPP must round-trip through persistence.
			var buf bytes.Buffer
			if _, err := profile.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := wpp.ReadProfile(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !loaded.Equal(profile) {
				t.Fatal("persisted profile expands differently")
			}

			// Walking the compressed trace covers exactly the events the
			// run reported.
			var walked uint64
			profile.Walk(func(string, uint64) bool { walked++; return true })
			if walked != profile.Stats.PathEvents {
				t.Fatalf("walked %d events, run emitted %d", walked, profile.Stats.PathEvents)
			}

			// Every walked path must regenerate to a block sequence.
			checked := 0
			profile.Walk(func(fn string, id uint64) bool {
				if _, err := profile.PathBlocks(fn, id); err != nil {
					t.Fatalf("path %s:%d: %v", fn, id, err)
				}
				checked++
				return checked < 100
			})

			// Hot subpaths must be found and agree between loaded and
			// in-memory profiles.
			opts := wpp.HotOptions{MinLen: 2, MaxLen: 6, Threshold: 0.01}
			hot, err := profile.HotSubpaths(opts)
			if err != nil {
				t.Fatal(err)
			}
			hotLoaded, err := loaded.HotSubpaths(opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(hot) != len(hotLoaded) {
				t.Fatalf("hot subpaths differ after reload: %d vs %d", len(hot), len(hotLoaded))
			}
			if len(hot) == 0 {
				t.Fatal("no hot subpaths at 1% on a loopy workload")
			}
		})
	}
}

func TestRecoveredProfileMatchesExecution(t *testing.T) {
	// The path profile recovered from the grammar must account for every
	// executed instruction, workload by workload.
	for _, name := range []string{"compress", "queens", "sim"} {
		w, err := experiments.WPPForWorkload(name, experiments.Small)
		if err != nil {
			t.Fatal(err)
		}
		prof := hotpath.PathProfile(w)
		var cost, events uint64
		for _, p := range prof {
			cost += p.Cost
			events += p.Count
		}
		if cost != w.Instructions {
			t.Fatalf("%s: profile cost %d != instructions %d", name, cost, w.Instructions)
		}
		if events != w.Events {
			t.Fatalf("%s: profile events %d != trace events %d", name, events, w.Events)
		}
	}
}

func TestDeterministicProfilesAcrossRuns(t *testing.T) {
	w, err := workloads.ByName("game")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := wpp.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prog.Profile([]int64{w.Small})
	if err != nil {
		t.Fatal(err)
	}
	b, err := prog.Profile([]int64{w.Small})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("two runs of a deterministic workload produced different traces")
	}
	// And the serialized artifacts are bit-identical.
	var ba, bb bytes.Buffer
	if _, err := a.WriteTo(&ba); err != nil {
		t.Fatal(err)
	}
	if _, err := b.WriteTo(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("serialized WPPs differ across identical runs")
	}
}

func TestConcurrentProfilesAreIndependent(t *testing.T) {
	// Machines share no state: profiling the same program concurrently
	// must produce identical, interference-free traces. Run with -race to
	// get the full benefit.
	w, err := workloads.ByName("lexer")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := wpp.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	reference, err := prog.Profile([]int64{w.Small})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func() {
			p, err := prog.Profile([]int64{w.Small})
			if err != nil {
				errs <- err
				return
			}
			if !p.Equal(reference) {
				errs <- fmt.Errorf("concurrent profile diverged")
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestLargeScalePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping large-scale run in -short mode")
	}
	// One workload at Large scale: several million events through the
	// whole pipeline, verifying size accounting and hot-subpath agreement
	// at scale.
	w, err := workloads.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := wpp.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	profile, err := prog.Profile([]int64{w.Large})
	if err != nil {
		t.Fatal(err)
	}
	sz := profile.Size()
	if sz.Events < 400_000 {
		t.Fatalf("large run produced only %d events", sz.Events)
	}
	if sz.Factor() < 10 {
		t.Fatalf("large run compressed only %.1fx", sz.Factor())
	}
	hot, err := profile.HotSubpaths(wpp.HotOptions{MinLen: 4, MaxLen: 8, Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(hot) == 0 {
		t.Fatal("no hot subpaths at large scale")
	}
}

func TestGrammarAnalysisOracleOnWorkloads(t *testing.T) {
	// Find vs FindByScan on real workload WPPs — the compressed-form
	// analysis must agree exactly with decompress-and-scan.
	for _, name := range []string{"lexer", "sort"} {
		w, err := experiments.WPPForWorkload(name, experiments.Small)
		if err != nil {
			t.Fatal(err)
		}
		opts := hotpath.Options{MinLen: 2, MaxLen: 10, Threshold: 0.005}
		fast, err := hotpath.Find(w, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := hotpath.FindByScan(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(fast) != len(slow) {
			t.Fatalf("%s: %d vs %d subpaths", name, len(fast), len(slow))
		}
		for i := range fast {
			if fast[i].Count != slow[i].Count || fast[i].Cost != slow[i].Cost {
				t.Fatalf("%s: subpath %d differs", name, i)
			}
		}
	}
}

func TestRecoveredFuncProfileMatchesGroundTruth(t *testing.T) {
	// The per-function cost profile recovered from the compressed trace
	// must equal the interpreter's directly measured per-function
	// instruction counters, exactly.
	for _, name := range []string{"sort", "hash", "queens", "expr"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := wlc.Compile(w.Source)
		if err != nil {
			t.Fatal(err)
		}
		var b *iwpp.MonoBuilder
		m, err := interp.New(prog, interp.Config{Mode: interp.PathTrace, Sink: trace.SinkFunc(func(e trace.Event) { b.Add(e) })})
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(prog.Funcs))
		for i, f := range prog.Funcs {
			names[i] = f.Name
		}
		b = iwpp.NewMonoBuilder(names, m.Numberings())
		if _, err := m.Run("main", w.Small); err != nil {
			t.Fatal(err)
		}
		wp := b.Finish(m.Stats().Instructions)

		truth := m.Stats().FuncInstrs
		recovered := make([]uint64, len(prog.Funcs))
		prof, err := hotpath.FuncProfile(wp, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, fe := range prof {
			recovered[fe.Func] = fe.Cost
		}
		for fn := range truth {
			if truth[fn] != recovered[fn] {
				t.Fatalf("%s/%s: ground truth %d instructions, WPP recovers %d",
					name, names[fn], truth[fn], recovered[fn])
			}
		}
	}
}
