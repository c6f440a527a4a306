// Command wppload is the load generator for wppd: it replays a bundled
// workload's captured path-event stream over N concurrent connections,
// optionally injecting client faults (mid-stream disconnects, malformed
// frames, duplicate seals), and writes a machine-readable throughput
// report: table L1, and with -json the BENCH_serve.json trajectory, which
// is compared with the run the file already holds before it is
// overwritten.
//
// Usage:
//
//	wppload [-addr http://127.0.0.1:8324] [-workload matmul] [-scale small]
//	        [-clients 1,8,64] [-sessions N] [-batch 4096] [-chunk N]
//	        [-format wpp1|wpp2] [-faults] [-verify-sha] [-seed 1]
//	        [-json BENCH_serve.json] [-spawn]
//
// With -spawn, wppload starts an in-process daemon instead of dialing
// -addr, so one command produces a self-contained benchmark.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obsv"
	"repro/internal/serve"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wppload:", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8324", "daemon base URL")
	spawn := flag.Bool("spawn", false, "run an in-process daemon instead of dialing -addr")
	workload := flag.String("workload", "matrix", "bundled workload to replay")
	scaleFlag := flag.String("scale", "small", "workload scale: small, medium, large")
	clientsFlag := flag.String("clients", "1,8,64", "comma-separated concurrency levels")
	sessions := flag.Int("sessions", 0, "sessions per level (0 = one per client)")
	batch := flag.Int("batch", 4096, "events per frame")
	chunk := flag.Uint64("chunk", 0, "server-side chunk size (0 = monolithic)")
	format := flag.String("format", "", "artifact format at seal: wpp1 (default) or wpp2")
	faults := flag.Bool("faults", false, "inject disconnects, malformed frames, and double seals")
	verifySHA := flag.Bool("verify-sha", true, "assert sealed artifacts are byte-identical to a local build")
	seed := flag.Int64("seed", 1, "randomization seed")
	jsonOut := flag.String("json", "", "write the report rows as a trajectory JSON to this file, printing a comparison with the run it already holds")
	flag.Parse()

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	var levels []int
	for _, s := range strings.Split(*clientsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			fatal(fmt.Errorf("bad -clients entry %q", s))
		}
		levels = append(levels, n)
	}

	base := *addr
	if *spawn {
		reg := obsv.NewRegistry()
		srv := serve.New(serve.Config{Metrics: serve.NewMetrics(reg)})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		base = ts.URL
	}

	run := func() (*experiments.Trajectory[serve.LoadReport], error) {
		res := serve.LoadLayout.Start(map[string]string{
			"format": cmp.Or(*format, "wpp1"), "faults": fmt.Sprint(*faults), "seed": fmt.Sprint(*seed),
		})
		for _, clients := range levels {
			opts := serve.LoadOptions{
				Workload:  *workload,
				Scale:     scale,
				Clients:   clients,
				Sessions:  *sessions,
				BatchSize: *batch,
				Chunk:     *chunk,
				Format:    *format,
				Seed:      *seed,
				VerifySHA: *verifySHA,
			}
			if *faults {
				opts.Faults = serve.FaultPlan{DisconnectEvery: 5, MalformedEvery: 7, DoubleSealEvery: 3}
			}
			rep, err := serve.RunLoad(base, opts)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, *rep)
		}
		return res, nil
	}

	if *jsonOut == "" {
		res, err := run()
		if err != nil {
			fatal(err)
		}
		fmt.Println(serve.LoadLayout.Table(res).String())
		return
	}
	if err := serve.LoadLayout.Record(os.Stdout, *jsonOut, run); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wppload: wrote %s\n", *jsonOut)
}
