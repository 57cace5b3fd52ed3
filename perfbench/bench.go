package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cpu"
	"repro/internal/sched"
)

// defaultSeed is the seed whose simulated statistics pins.go pins.
const defaultSeed = 1

// A workload is one closed-loop load: clients each send their next op
// only after the previous one completed. A run is a fixed op count,
// never a fixed duration, so per-op state (the daemon's job table)
// grows by the same amount in every run.
type workload struct {
	name    string
	clients int
	// opsPerSecond sizes a run: --seconds S runs S*opsPerSecond ops.
	// It is about the rate the workload sustains on a 2-vCPU host in a
	// busy period, except where per-op memory growth caps it (daemon).
	opsPerSecond int
	// setups is how many cold starts a measured run makes; setup_s is
	// their median and the last one serves the measured ops.
	setups int
	// start is the cold start: everything from the first call into the
	// program until op 0's result has been checked. tr is non-nil only
	// in traced runs.
	start func(seed int64, tr *tracer) (session, error)
}

var workloads = map[string]workload{
	"campaign":    {name: "campaign", clients: 1, opsPerSecond: 40, setups: 5, start: startCampaign},
	"daemon":      {name: "daemon", clients: 2, opsPerSecond: 15, setups: 9, start: startDaemon},
	"gadget-scan": {name: "gadget-scan", clients: 1, opsPerSecond: 18, setups: 7, start: startScan},
}

// A session is a started workload.
type session interface {
	// op runs operation i (i >= 1; op 0 ran inside start) and returns
	// the check of its output, which reports the first failed check. The
	// loop times the op, not the check. tr is nil outside the traced
	// loop. Ops are deterministic in (seed, i).
	op(i int, tr *tracer) (check func() error)
	// guest reports the simulated statistics op i retired.
	guest(i int) (guestStats, error)
	// layers adds the workload's per-layer metrics after a traced loop
	// over ops 1..n; m already holds the guest census of those ops.
	layers(tr *tracer, n int, m metricSet) error
	// describe adds run notes (sizing, poll schedule, ...).
	describe(notes map[string]any)
	close()
}

// guestStats is the simulated work of one or more ops.
type guestStats struct {
	Instrs, Cycles, Squashes          uint64
	L1Accesses, L1Misses              uint64
	CondBranches, CondMispred         uint64
	BlockHits, BlockCompiled, Samples uint64
}

func statsOf(c *cpu.CPU) guestStats {
	s, b := c.Snapshot(), c.BlockStats()
	return guestStats{
		Instrs: s.Instructions, Cycles: s.Cycles, Squashes: s.Squashes,
		L1Accesses: s.L1Accesses, L1Misses: s.L1Misses,
		CondBranches: s.CondBranches, CondMispred: s.CondMispred,
		BlockHits: b.Hits, BlockCompiled: b.Compiled,
	}
}

func (g *guestStats) add(o guestStats) {
	g.Instrs += o.Instrs
	g.Cycles += o.Cycles
	g.Squashes += o.Squashes
	g.L1Accesses += o.L1Accesses
	g.L1Misses += o.L1Misses
	g.CondBranches += o.CondBranches
	g.CondMispred += o.CondMispred
	g.BlockHits += o.BlockHits
	g.BlockCompiled += o.BlockCompiled
	g.Samples += o.Samples
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     map[string]any
}

// loopChunks is how many consecutive chunks of completions a loop is
// cut into. Throughput-like metrics are the median over the chunks, so
// a burst of host contention moves one chunk, not the run's figure.
const loopChunks = 10

// loopResult is one closed-loop pass over ops 1..n.
type loopResult struct {
	lat       []time.Duration // indexed by op-1
	rss       []float64       // peak RSS in MB over each op, indexed by op-1
	rssErr    error
	failed    int
	firstFail string
	order     []int  // op indices in completion order
	marks     []mark // at the start and after each chunk
}

// mark is the wall and CPU clocks once done ops have completed.
type mark struct {
	at, cpu time.Duration
	done    int
}

// chunkMedian is the median over the loop's chunks of f, given each
// chunk's bounding marks and the ops that completed in it.
func (lr loopResult) chunkMedian(f func(from, to mark, ops []int) float64) float64 {
	var xs []float64
	for j := 1; j < len(lr.marks); j++ {
		from, to := lr.marks[j-1], lr.marks[j]
		xs = append(xs, f(from, to, lr.order[from.done:to.done]))
	}
	return median(xs)
}

// p90Window is the op count of one p90 window: at least 10 ops lie
// beyond each window's 90th percentile.
const p90Window = 100

// p90MS is the median over consecutive windows of p90Window completed
// ops of the window's nearest-rank 90th-percentile latency. One window's
// tail catches a burst of host contention; the median over windows does
// not. Runs shorter than two windows use all their ops.
func (lr loopResult) p90MS() float64 {
	var p90s []float64
	for from := 0; from+p90Window <= len(lr.order); from += p90Window {
		var lat []time.Duration
		for _, i := range lr.order[from : from+p90Window] {
			lat = append(lat, lr.lat[i-1])
		}
		p90s = append(p90s, percentileMS(lat, 90))
	}
	if len(p90s) < 2 {
		return percentileMS(lr.lat, 90)
	}
	return median(p90s)
}

// opsPerSecond is the loop's throughput, a median over chunks.
func (lr loopResult) opsPerSecond() float64 {
	return lr.chunkMedian(func(from, to mark, ops []int) float64 {
		return float64(len(ops)) / (to.at - from.at).Seconds()
	})
}

func closedLoop(s session, clients, n int, tr *tracer) loopResult {
	res := loopResult{lat: make([]time.Duration, n), rss: make([]float64, n)}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	chunk := (n + loopChunks - 1) / loopChunks
	t0 := time.Now()
	res.marks = append(res.marks, mark{cpu: processCPU()})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i > n {
					return
				}
				rssErr := resetPeakRSS()
				end := tr.begin("op", i)
				start := time.Now()
				check := s.op(i, tr)
				res.lat[i-1] = time.Since(start)
				end()
				var rss float64
				if rssErr == nil {
					rss, rssErr = peakRSSMB()
				}
				res.rss[i-1] = rss
				err := check()
				mu.Lock()
				if err != nil {
					res.failed++
					if res.firstFail == "" {
						res.firstFail = fmt.Sprintf("op %d: %v", i, err)
					}
				}
				if rssErr != nil && res.rssErr == nil {
					res.rssErr = rssErr
				}
				res.order = append(res.order, i)
				if done := len(res.order); done%chunk == 0 || done == n {
					res.marks = append(res.marks, mark{at: time.Since(t0), cpu: processCPU(), done: done})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

// procSample is the process-wide counters a loop is measured by.
type procSample struct {
	totalAlloc    uint64
	gcCPU, allCPU float64 // runtime/metrics CPU-seconds estimates
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// processCPU is the process's user+sys time (getrusage).
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	return procSample{
		totalAlloc: ms.TotalAlloc,
		gcCPU:      cpuMetrics[0].Value.Float64(),
		allCPU:     cpuMetrics[1].Value.Float64(),
	}
}

// processMaxRSSMB is getrusage's maxrss: the whole process's peak.
func processMaxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// the next peakRSSMB covers only what ran since.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// retainedHeapMB is what the process holds after a full collection.
func retainedHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// percentileMS is the nearest-rank percentile of the latencies in ms.
func percentileMS(lat []time.Duration, p float64) float64 {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	return percentile(ms, p)
}

func baseNotes(w workload, o options, n int) map[string]any {
	cpuModel := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpuModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"workload": w.name, "seed": o.seed, "trace": o.trace,
		"ops": n, "clients": w.clients, "loop": "closed",
		"host": map[string]any{"nproc": runtime.NumCPU(), "cpu": cpuModel, "go": runtime.Version()},
		"time": "host time only; simulated statistics are checked, never reported",
	}
}

// measuredRun is the untraced run that yields the end-to-end metrics.
func measuredRun(w workload, o options) (*result, error) {
	n := w.opsPerSecond * o.seconds
	var (
		s      session
		setups []float64
	)
	for k := 0; k < w.setups; k++ {
		if s != nil {
			s.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = w.start(o.seed, nil); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.close()
	if err := prepare(s); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	runtime.GC()
	lr := closedLoop(s, w.clients, n, nil)
	heap := retainedHeapMB()
	if lr.rssErr != nil {
		return nil, fmt.Errorf("peak RSS: %w", lr.rssErr)
	}

	instrs := make([]uint64, n+1)
	for i := 1; i <= n; i++ {
		g, err := s.guest(i)
		if err != nil {
			return nil, fmt.Errorf("%s guest census: %w", w.name, err)
		}
		instrs[i] = g.Instrs
	}

	m := metricSet{}
	m.set("setup_s", median(setups))
	m.set("ops_per_s", lr.opsPerSecond())
	m.set("op_p50_ms", percentileMS(lr.lat, 50))
	m.set("op_p90_ms", lr.p90MS())
	m.set("cpu_ms_per_op", lr.chunkMedian(func(from, to mark, ops []int) float64 {
		return float64((to.cpu - from.cpu).Nanoseconds()) / 1e6 / float64(len(ops))
	}))
	// The median, over the last chunk's ops, of the RSS high-water mark
	// reached during the op: the peak the process needs at the end of
	// the run, per-op state included. The process-wide maxrss is one
	// extreme of thousands of GC cycles and does not repeat; it is kept
	// in the notes.
	last := lr.marks[len(lr.marks)-2].done
	var endRSS []float64
	for _, i := range lr.order[last:] {
		endRSS = append(endRSS, lr.rss[i-1])
	}
	m.set("peak_rss_mb", median(endRSS))
	m.set("retained_heap_mb", heap)
	m.set("guest_minstr_per_s", lr.chunkMedian(func(from, to mark, ops []int) float64 {
		var sum uint64
		for _, i := range ops {
			sum += instrs[i]
		}
		return float64(sum) / 1e6 / (to.at - from.at).Seconds()
	}))
	m.set("op_success_ratio", float64(n-lr.failed)/float64(n))

	notes := baseNotes(w, o, n)
	notes["setup_s_each"] = setups
	notes["chunks"] = len(lr.marks) - 1
	notes["process_maxrss_mb"] = processMaxRSSMB()
	notes["p90_windows"] = max(1, n/p90Window)
	if lr.firstFail != "" {
		notes["first_failure"] = lr.firstFail
	}
	s.describe(notes)
	return &result{Correct: lr.failed == 0, Attempted: n, Failed: lr.failed,
		Metrics: m.complete(endToEnd, nil), notes: notes}, nil
}

// tracedRun makes one cold start, runs ops 1..n/2 untraced and then the
// same ops traced, and reports the per-layer metrics. The untraced pass
// is the baseline for the tracing overhead and the runtime metrics.
func tracedRun(w workload, o options) (*result, error) {
	n := w.opsPerSecond * o.seconds / 2
	if n < 1 {
		n = 1
	}
	tr := newTracer()
	s, err := w.start(o.seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer s.close()
	if err := prepare(s); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	heap0 := retainedHeapMB()
	p0 := sampleProc()
	plain := closedLoop(s, w.clients, n, nil)
	p1 := sampleProc()
	traced := closedLoop(s, w.clients, n, tr)
	tr.count("runtime.heap_growth_mb", retainedHeapMB()-heap0)

	m := metricSet{}
	m.set("runtime.alloc_mb_per_op", float64(p1.totalAlloc-p0.totalAlloc)/(1<<20)/float64(n))
	m.set("runtime.gc_cpu_fraction", (p1.gcCPU-p0.gcCPU)/(p1.allCPU-p0.allCPU))
	m.set("bench.trace_overhead_ratio", plain.opsPerSecond()/traced.opsPerSecond())
	var g guestStats
	for i := 1; i <= n; i++ {
		gi, err := s.guest(i)
		if err != nil {
			return nil, fmt.Errorf("%s guest census: %w", w.name, err)
		}
		g.add(gi)
	}
	setGuestLayers(m, g, n)
	if err := s.layers(tr, n, m); err != nil {
		return nil, fmt.Errorf("%s layers: %w", w.name, err)
	}

	notes := baseNotes(w, o, 2*n)
	notes["passes"] = "ops 1..n untraced, then the same ops traced"
	failed := plain.failed + traced.failed
	for _, f := range []string{plain.firstFail, traced.firstFail} {
		if f != "" && notes["first_failure"] == nil {
			notes["first_failure"] = f
		}
	}
	var missing []string
	out := m.complete(perLayer, &missing)
	notes["not_exercised"] = map[string]any{
		"metrics": missing,
		"reason":  "the workload does not call into this layer; reported as 0",
	}
	s.describe(notes)
	if err := tr.writeSpans(fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", w.name, o.seed)); err != nil {
		notes["spans"] = "not written: " + err.Error()
	}
	return &result{Correct: failed == 0, Attempted: 2 * n, Failed: failed,
		Metrics: out, notes: notes}, nil
}

// setGuestLayers derives the exact simulated-work layer counts. They
// repeat exactly for a given seed, so a host-speed change must not move
// them.
func setGuestLayers(m metricSet, g guestStats, n int) {
	per := func(v uint64) float64 { return float64(v) / float64(n) }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m.set("cpu.guest_instrs_per_op", per(g.Instrs))
	m.set("cpu.guest_cycles_per_op", per(g.Cycles))
	m.set("cpu.squashes_per_op", per(g.Squashes))
	m.set("cpu.block_hit_ratio", ratio(g.BlockHits, g.BlockHits+g.BlockCompiled))
	m.set("cache.l1_miss_ratio", ratio(g.L1Misses, g.L1Accesses))
	m.set("branch.cond_mispredict_ratio", ratio(g.CondMispred, g.CondBranches))
	if g.Samples > 0 {
		m.set("pmu.samples_per_op", per(g.Samples))
	}
}

// prepare runs a session's untimed preparation, if it has one: work
// that makes the checks possible but that no user would pay.
func prepare(s session) error {
	if p, ok := s.(interface{ prepare() error }); ok {
		return p.prepare()
	}
	return nil
}

// schedMapUS is sched.Map's own cost per task: an empty body over the
// workload's task count, repeated for at least 20 ms.
func schedMapUS(tasks, workers int) float64 {
	ctx := context.Background()
	body := func(context.Context, int) (struct{}, error) { return struct{}{}, nil }
	start := time.Now()
	done := 0
	for time.Since(start) < 20*time.Millisecond {
		if _, err := sched.Map(ctx, workers, tasks, body); err != nil {
			panic(err) // the body cannot fail
		}
		done += tasks
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(done)
}
