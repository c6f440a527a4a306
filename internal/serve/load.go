package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/trace"
	iwpp "repro/internal/wpp"
)

// FaultPlan injects client-side failures into a load run, exercising the
// daemon's isolation guarantees. Each knob marks every Nth session (0
// disables that fault).
type FaultPlan struct {
	// DisconnectEvery aborts the marked session mid-stream: the client
	// stops after a random prefix of its frames and walks away without
	// sealing, leaving eviction to the janitor (or the explicit DELETE
	// the generator issues to keep the table bounded).
	DisconnectEvery int
	// MalformedEvery sends one garbage frame (bad magic, truncated tail,
	// or out-of-range event) before the real stream; the server must
	// answer 400 and the session must remain cleanly usable.
	MalformedEvery int
	// DoubleSealEvery seals the marked session twice; the second seal
	// must answer 409 without disturbing the artifact.
	DoubleSealEvery int
}

// LoadOptions configures one load-generation run.
type LoadOptions struct {
	Workload string
	Scale    experiments.Scale
	// Clients is the number of concurrent connections; Sessions is the
	// total session count spread across them (default: one each).
	Clients  int
	Sessions int
	// BatchSize is the events-per-frame target; 0 means 4096.
	BatchSize int
	// Chunk selects the server-side build strategy per session.
	Chunk uint64
	// Format is the seal encoding ("", "wpp1", "wpp2").
	Format string
	// Faults injects client failures.
	Faults FaultPlan
	// Seed fixes the fault/batch randomization.
	Seed int64
	// VerifySHA checks every sealed artifact's digest against a local
	// build of the same capture (byte-identity).
	VerifySHA bool
}

// LoadReport is the machine-readable result of one load run — one row
// of BENCH_serve.json.
type LoadReport struct {
	Workload     string  `json:"workload"`
	Scale        string  `json:"scale"`
	Clients      int     `json:"clients"`
	Sessions     int     `json:"sessions"`
	BatchSize    int     `json:"batch_size"`
	Chunk        uint64  `json:"chunk"`
	EventsSent   uint64  `json:"events_sent"`
	BytesSent    uint64  `json:"bytes_sent"`
	Frames       uint64  `json:"frames"`
	Sealed       uint64  `json:"sealed"`
	Disconnects  uint64  `json:"disconnects"`
	Injected400s uint64  `json:"injected_400s"`
	Conflict409s uint64  `json:"conflict_409s"`
	Shed503s     uint64  `json:"shed_503s"`
	ShaChecked   uint64  `json:"sha_checked"`
	ShaMismatch  uint64  `json:"sha_mismatch"`
	Errors       uint64  `json:"errors"`
	Seconds      float64 `json:"seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
	MBPerSec     float64 `json:"mb_per_sec"`
}

// LoadLayout is table L1 and the BENCH_serve.json trajectory: one row
// per concurrency level.
var LoadLayout = experiments.Layout[LoadReport]{
	Schema: "wpp/serveload/v1",
	ID:     "L1",
	Title: func(t *experiments.Trajectory[LoadReport]) string {
		c := t.Config
		return fmt.Sprintf("wppd ingest under concurrent load (format=%s, faults=%s, seed=%s)", c["format"], c["faults"], c["seed"])
	},
	Columns: []experiments.Column[LoadReport]{
		{Header: "workload", Cell: func(r LoadReport) string { return r.Workload + "@" + r.Scale }},
		{Header: "clients", Cell: func(r LoadReport) string { return fmt.Sprint(r.Clients) }},
		{Header: "sessions", Cell: func(r LoadReport) string { return fmt.Sprint(r.Sessions) }},
		{Header: "events", Cell: func(r LoadReport) string { return fmt.Sprint(r.EventsSent) }},
		{Header: "sealed", Cell: func(r LoadReport) string { return fmt.Sprint(r.Sealed) }},
		{Header: "ev/s", Cell: func(r LoadReport) string { return fmt.Sprintf("%.0f", r.EventsPerSec) }, Track: func(r LoadReport) float64 { return r.EventsPerSec }},
		{Header: "MB/s", Cell: func(r LoadReport) string { return fmt.Sprintf("%.2f", r.MBPerSec) }, Track: func(r LoadReport) float64 { return r.MBPerSec }},
		{Header: "503s", Cell: func(r LoadReport) string { return fmt.Sprint(r.Shed503s) }},
		{Header: "errs", Cell: func(r LoadReport) string { return fmt.Sprint(r.Errors) }},
	},
	Key: func(r LoadReport) string { return fmt.Sprintf("%s@%s/%d", r.Workload, r.Scale, r.Clients) },
}

// referenceSHA builds the capture locally with the same options the
// server will use and digests the encoding — the byte-identity oracle.
func referenceSHA(c *experiments.Capture, chunk uint64, format string) (string, error) {
	b := iwpp.New(c.Names, c.Nums, iwpp.BuildOptions{ChunkSize: chunk})
	b.AddBatch(c.Events)
	a := b.Finish(c.Instructions)
	if format == "wpp2" {
		iwpp.SetVersion(a, iwpp.FormatV2)
	}
	var buf bytes.Buffer
	if _, err := a.Encode(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// garbageFrame fabricates one malformed ingest body, cycling through the
// distinct failure modes the reader must reject.
func garbageFrame(rng *rand.Rand, kind int) []byte {
	switch kind % 3 {
	case 0: // wrong magic
		return []byte("WPPX\x01\x02\x03")
	case 1: // valid magic, frame cut mid-varint
		f := EncodeFrame([]trace.Event{trace.Event(1 << 50)})
		return f[:len(f)-1]
	default: // event beyond the function-ID universe
		var buf bytes.Buffer
		buf.WriteString("WPT1")
		v := ^uint64(0) >> uint(rng.Intn(2))
		var tmp [10]byte
		n := 0
		for v >= 0x80 {
			tmp[n] = byte(v) | 0x80
			v >>= 7
			n++
		}
		tmp[n] = byte(v)
		buf.Write(tmp[:n+1])
		return buf.Bytes()
	}
}

// RunLoad replays a captured workload against a daemon at base over
// opts.Clients concurrent connections and reports aggregate throughput.
// Capture (the interpreter run) happens once, outside the timed region.
func RunLoad(base string, opts LoadOptions) (*LoadReport, error) {
	if opts.Clients <= 0 {
		opts.Clients = 1
	}
	if opts.Sessions <= 0 {
		opts.Sessions = opts.Clients
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 4096
	}
	if opts.Workload == "" {
		opts.Workload = "matrix"
	}
	cap, err := experiments.CaptureWorkload(opts.Workload, opts.Scale)
	if err != nil {
		return nil, err
	}
	var wantSHA string
	if opts.VerifySHA {
		wantSHA, err = referenceSHA(cap, opts.Chunk, opts.Format)
		if err != nil {
			return nil, err
		}
	}

	rep := &LoadReport{
		Workload:  opts.Workload,
		Scale:     opts.Scale.String(),
		Clients:   opts.Clients,
		Sessions:  opts.Sessions,
		BatchSize: opts.BatchSize,
		Chunk:     opts.Chunk,
	}
	var (
		events, bytesSent, frames           atomic.Uint64
		sealed, disconnects, inj400, con409 atomic.Uint64
		shed503, shaChecked, shaBad, errs   atomic.Uint64
		next                                atomic.Int64
	)
	// Frames are pre-encoded once (encoding is client-side work, not
	// daemon throughput) and shared read-only by every connection.
	var encFrames [][]byte
	for off := 0; off < len(cap.Events); off += opts.BatchSize {
		end := min(off+opts.BatchSize, len(cap.Events))
		encFrames = append(encFrames, EncodeFrame(cap.Events[off:end:end]))
	}
	frameEvents := func(i int) int {
		if i < len(encFrames)-1 {
			return opts.BatchSize
		}
		return len(cap.Events) - (len(encFrames)-1)*opts.BatchSize
	}

	ingestAll := func(c *Client, id string, upto int) bool {
		for i := 0; i < upto; i++ {
			for {
				_, err := c.IngestRaw(id, encFrames[i])
				if err == nil {
					events.Add(uint64(frameEvents(i)))
					bytesSent.Add(uint64(len(encFrames[i])))
					frames.Add(1)
					break
				}
				if IsStatus(err, http.StatusServiceUnavailable) {
					shed503.Add(1)
					time.Sleep(time.Millisecond)
					continue
				}
				errs.Add(1)
				return false
			}
		}
		return true
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < opts.Clients; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(opts.Seed + int64(worker)*7919))
			c := NewClient(base)
			for {
				n := int(next.Add(1)) - 1
				if n >= opts.Sessions {
					return
				}
				sessNo := n + 1
				var info SessionInfo
				var err error
				for {
					info, err = c.Open(OpenRequest{
						Workload: opts.Workload,
						Scale:    opts.Scale.String(),
						Chunk:    opts.Chunk,
						Format:   opts.Format,
					})
					if err == nil {
						break
					}
					// Shed opens retry in place so the session slot is
					// never lost; anything else burns the slot as an error.
					if IsStatus(err, http.StatusServiceUnavailable) {
						shed503.Add(1)
						time.Sleep(2 * time.Millisecond)
						continue
					}
					errs.Add(1)
					break
				}
				if err != nil {
					continue
				}
				id := info.ID

				if f := opts.Faults.MalformedEvery; f > 0 && sessNo%f == 0 {
					frame := garbageFrame(rng, sessNo)
					for {
						_, err := c.IngestRaw(id, frame)
						if IsStatus(err, http.StatusServiceUnavailable) {
							shed503.Add(1)
							time.Sleep(time.Millisecond)
							continue
						}
						if IsStatus(err, http.StatusBadRequest) {
							inj400.Add(1)
						} else {
							errs.Add(1)
						}
						break
					}
				}
				if f := opts.Faults.DisconnectEvery; f > 0 && sessNo%f == 0 {
					upto := rng.Intn(len(encFrames) + 1)
					ingestAll(c, id, upto)
					disconnects.Add(1)
					c.Evict(id) //nolint:errcheck // abandoned either way; janitor is the backstop
					continue
				}
				if !ingestAll(c, id, len(encFrames)) {
					c.Evict(id) //nolint:errcheck
					continue
				}
				res, err := c.Seal(id, cap.Instructions)
				if err != nil {
					errs.Add(1)
					c.Evict(id) //nolint:errcheck
					continue
				}
				sealed.Add(1)
				if f := opts.Faults.DoubleSealEvery; f > 0 && sessNo%f == 0 {
					if _, err := c.Seal(id, cap.Instructions); IsStatus(err, http.StatusConflict) {
						con409.Add(1)
					} else {
						errs.Add(1)
					}
				}
				if opts.VerifySHA {
					shaChecked.Add(1)
					if res.SHA256 != wantSHA {
						shaBad.Add(1)
					}
				}
				c.Evict(id) //nolint:errcheck // free the slot for the next session
			}
		}(w)
	}
	wg.Wait()
	rep.Seconds = time.Since(start).Seconds()

	rep.EventsSent = events.Load()
	rep.BytesSent = bytesSent.Load()
	rep.Frames = frames.Load()
	rep.Sealed = sealed.Load()
	rep.Disconnects = disconnects.Load()
	rep.Injected400s = inj400.Load()
	rep.Conflict409s = con409.Load()
	rep.Shed503s = shed503.Load()
	rep.ShaChecked = shaChecked.Load()
	rep.ShaMismatch = shaBad.Load()
	rep.Errors = errs.Load()
	if rep.Seconds > 0 {
		rep.EventsPerSec = float64(rep.EventsSent) / rep.Seconds
		rep.MBPerSec = float64(rep.BytesSent) / 1e6 / rep.Seconds
	}
	if rep.ShaMismatch > 0 {
		return rep, fmt.Errorf("load: %d of %d sealed artifacts diverged from the local build",
			rep.ShaMismatch, rep.ShaChecked)
	}
	return rep, nil
}
