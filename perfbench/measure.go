package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 9

// repeatSetup runs prepare setupReps times and returns the durations.
// Each call after the first releases the previous state first through
// the cleanup it returned, so only the last set-up stays live for the
// caller to use and release. A repetition the hypervisor disturbed is
// repeated, at most setupReps times in all.
func repeatSetup(speed *speedometer, prepare func() (cleanup func(), err error)) ([]time.Duration, error) {
	var ds []time.Duration
	var cleanup func()
	budget := newRetryBudget(setupReps)
	for len(ds) < setupReps {
		if cleanup != nil {
			cleanup()
		}
		// Every repetition starts from a collected heap, so it does not
		// pay for the garbage of the one before.
		runtime.GC()
		clk := speed.startOp()
		c, err := prepare()
		if err != nil {
			if c != nil {
				c()
			}
			return nil, err
		}
		cleanup = c
		if t := clk.stop(); !budget.retry(t.disturbed) {
			ds = append(ds, t.scaled)
		}
	}
	return ds, nil
}

// rounds is the fixed number of op-mix rounds a run times: the nominal
// timed-phase length over the mix's nominal round time at the commit
// that defined the benchmark, so both sides of a comparison run the same
// ops. Traced runs alternate traced and untraced rounds, so they round
// up to an even count.
func rounds(cfg config, nominal time.Duration) int {
	n := int((time.Duration(cfg.seconds)*time.Second + nominal - 1) / nominal)
	if n < 2 {
		n = 2
	}
	if cfg.trace && n%2 == 1 {
		n++
	}
	return n
}

// roundTraced reports whether round r of a traced run records spans.
func roundTraced(r int) bool { return r%2 == 1 }

// deadline caps a run whose program got much slower than the nominal
// round time assumed, so it still ends within three minutes.
func deadline(cfg config) time.Duration {
	return min(8*time.Duration(cfg.seconds)*time.Second, 120*time.Second)
}

// retries is a run's retry budget: a fifth of its timed ops, which
// bounds how much longer a run on a busy host can take. Traced runs
// repeat nothing, so every traced op's spans are kept.
func retries(cfg config, ops int) int {
	if cfg.trace {
		return 0
	}
	return ops / 5
}

// memDelta is the Go runtime's view of the timed phase.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64 // GC CPU time over total CPU time
}

var cpuSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

type memMark struct {
	ms  runtime.MemStats
	cpu []metrics.Sample
}

func markMem() memMark {
	var m memMark
	runtime.ReadMemStats(&m.ms)
	m.cpu = make([]metrics.Sample, len(cpuSamples))
	for i, n := range cpuSamples {
		m.cpu[i].Name = n
	}
	metrics.Read(m.cpu)
	return m
}

func (m memMark) since() memDelta {
	now := markMem()
	d := memDelta{
		allocBytes: now.ms.TotalAlloc - m.ms.TotalAlloc,
		gcCycles:   now.ms.NumGC - m.ms.NumGC,
	}
	if now.cpu[1].Value.Kind() == metrics.KindFloat64 && now.cpu[0].Value.Kind() == metrics.KindFloat64 {
		gc := now.cpu[0].Value.Float64() - m.cpu[0].Value.Float64()
		total := now.cpu[1].Value.Float64() - m.cpu[1].Value.Float64()
		if total > 0 {
			d.gcCPU = gc / total
		}
	}
	return d
}

// timedPhase brackets a workload's timed phase.
type timedPhase struct {
	mark  memMark
	start time.Time
}

// beginTimedPhase collects set-up garbage, returns freed memory to the
// OS, and resets the kernel's RSS high-water mark so peakRSSMB covers
// the timed phase only. Where the reset is unavailable the mark covers
// the whole run.
func beginTimedPhase() timedPhase {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
	return timedPhase{markMem(), time.Now()}
}

// end records the phase's wall time, re-run ops, memory deltas and RSS
// high-water mark.
func (p timedPhase) end(r *report, budget *retryBudget) {
	r.wall = time.Since(p.start)
	r.retried = int(budget.used.Load())
	r.mem = p.mark.since()
	r.peakRSSMB = peakRSSMB()
}

// peakRSSMB reads the process RSS high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// jiffy is the unit of /proc/stat's CPU times (USER_HZ is 100 on Linux).
const jiffy = 10 * time.Millisecond

// stealJiffies is the time the hypervisor has kept this machine's
// virtual CPUs from running while they had work: the steal column of
// /proc/stat's cpu line. It reads 0 where unavailable.
func stealJiffies() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// speedometer tells how fast the machine runs right now. Before each op
// it times refKernel, fixed work that never changes with the repository;
// an op's time is scaled by refNominal over the median of the last
// refWindow kernel times (see README.md, "Reference speed"). Each client
// goroutine has its own.
type speedometer struct {
	buf    []byte
	table  map[uint64]uint32
	recent []time.Duration
	all    []time.Duration // every kernel time since the last reset
}

// refNominal is refKernel's time on an uncontended machine of the kind
// the benchmark was defined on.
const refNominal = 2 * time.Millisecond

// refWindow is how many recent kernel times the scale factor is the
// median of: enough to damp one time's noise, few enough to follow a
// contention regime that lasts seconds.
const refWindow = 5

// newSpeedometer returns a speedometer whose kernel has run a few times
// untimed, so its first timings do not include faulting its memory in.
func newSpeedometer() *speedometer {
	m := &speedometer{buf: make([]byte, 4<<20), table: make(map[uint64]uint32, 1<<14)}
	for i := 0; i < 3; i++ {
		m.refKernel()
	}
	return m
}

// refKernel clears a 4 MiB buffer and counts 128Ki pseudo-random keys in
// a 16Ki-key map: memory bandwidth and hashing, the two things other
// tenants slow down. It allocates nothing, so the program's heap and
// collector do not reach it.
func (m *speedometer) refKernel() {
	clear(m.buf)
	clear(m.table)
	x := uint64(1)
	for i := 0; i < 1<<17; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m.table[x>>50]++
	}
}

// factor runs the kernel and returns refNominal over the median of the
// recent kernel times: below 1 while the machine runs slower than
// nominal.
func (m *speedometer) factor() float64 {
	start := time.Now()
	m.refKernel()
	d := time.Since(start)
	m.all = append(m.all, d)
	m.recent = append(m.recent, d)
	if len(m.recent) > refWindow {
		m.recent = m.recent[1:]
	}
	return float64(refNominal) / (median(seconds(m.recent)) * float64(time.Second))
}

// opClock times one op.
type opClock struct {
	start  time.Time
	steal  uint64
	factor float64
}

// startOp measures the machine's speed, then starts the op's clock.
func (m *speedometer) startOp() opClock {
	f := m.factor()
	return opClock{time.Now(), stealJiffies(), f}
}

// opTime is one op's time.
type opTime struct {
	// wall is the time as measured; scaled is wall at reference speed.
	wall, scaled time.Duration
	// disturbed is set when the hypervisor took more than a twentieth of
	// the CPU time the machine had during the op, and more than one tick.
	disturbed bool
}

func (c opClock) stop() opTime {
	wall := time.Since(c.start)
	stolen := time.Duration(stealJiffies()-c.steal) * jiffy
	return opTime{
		wall:      wall,
		scaled:    time.Duration(float64(wall) * c.factor),
		disturbed: stolen > max(jiffy, wall*time.Duration(runtime.NumCPU())/20),
	}
}

// timeOp runs one timed op. A traced op runs once; an untraced op runs
// again while the hypervisor disturbed it and budget lasts. In a traced
// run the op's time also goes to the traced or untraced sum.
func (r *report) timeOp(tracedRun, traced bool, budget *retryBudget, run func() opTime) opTime {
	t := run()
	if traced {
		r.tracedLat += t.wall
		return t
	}
	for budget.retry(t.disturbed) {
		t = run()
	}
	if tracedRun {
		r.untracedLat += t.wall
	}
	return t
}

// retryBudget bounds how many disturbed ops a run repeats. An op the
// hypervisor disturbed is run again and its sample dropped while the
// budget lasts, so percentiles and throughput describe the program and
// not the neighbours; once it is spent, samples stand as measured.
type retryBudget struct {
	left atomic.Int64
	used atomic.Int64
}

func newRetryBudget(n int) *retryBudget {
	b := &retryBudget{}
	b.left.Store(int64(n))
	return b
}

// retry reports whether a disturbed op should be run again.
func (b *retryBudget) retry(disturbed bool) bool {
	if !disturbed || b.left.Add(-1) < 0 {
		return false
	}
	b.used.Add(1)
	return true
}
