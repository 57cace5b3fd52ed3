package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. BENCHMARK.json declares the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"retained_heap_mb", "MB"},
	{"guest_minstr_per_s", "Minstr/s"},
	{"op_success_ratio", "ratio"},
}

// perLayer are the traced run's metrics, grouped by the layer (package)
// whose public calls the spans wrap.
var perLayer = []metricDef{
	{"experiments.corpus_s", "s"},
	{"ml.train_s", "s"},
	{"isa.assemble_ms", "ms"},
	{"vm.build_ms", "ms"},
	{"gadget.scan_ms", "ms"},
	{"rop.plan_ms", "ms"},
	{"hid.score_ms", "ms"},
	{"pmu.guest_run_ms", "ms"},
	{"pmu.samples_per_op", "count"},
	{"cpu.host_ns_per_guest_instr", "ns"},
	{"cpu.guest_instrs_per_op", "count"},
	{"cpu.guest_cycles_per_op", "count"},
	{"cpu.block_hit_ratio", "ratio"},
	{"cpu.squashes_per_op", "count"},
	{"cache.l1_miss_ratio", "ratio"},
	{"branch.cond_mispredict_ratio", "ratio"},
	{"client.submit_ms", "ms"},
	{"client.fetch_ms", "ms"},
	{"client.status_polls_per_op", "count"},
	{"controlapi.overhead_ms_per_job", "ms"},
	{"controlapi.engine_ms_per_job", "ms"},
	{"controlapi.artifact_kb_per_job", "KB"},
	{"telemetry.events_per_job", "count"},
	{"defense.evaluate_ms_per_rep", "ms"},
	{"runtime.retained_mb_per_job", "MB"},
	{"analysis.static_ms", "ms"},
	{"analysis.confirm_ms", "ms"},
	{"analysis.report_ms", "ms"},
	{"analysis.findings_per_op", "count"},
	{"analysis.confirmed_per_op", "count"},
	{"sched.map_us_per_task", "us"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
}

var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

// metricSet holds measured values by name; units come from the tables.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) {
	if _, ok := units[name]; !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m[name] = v
}

// complete renders the declared metrics in defs. A declared metric the
// workload did not measure is reported as 0 and its name appended to
// *missing (nil means every metric must be present).
func (m metricSet) complete(defs []metricDef, missing *[]string) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok {
			if missing == nil {
				panic("perfbench: end-to-end metric not measured: " + d.name)
			}
			*missing = append(*missing, d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}

// tracer records spans around the benchmark's calls into each layer,
// plus counts at the same boundaries. Spans stay in memory and are
// written out when the run ends. A nil tracer records nothing.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

type span struct {
	Name  string  `json:"name"`
	Op    int     `json:"op"` // 0: setup
	Start float64 `json:"start_ms"`
	End   float64 `json:"end_ms"`
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// begin opens a span; the returned func closes it.
func (t *tracer) begin(name string, op int) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.t0)
	return func() {
		end := time.Since(t.t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, Op: op,
			Start: float64(start.Nanoseconds()) / 1e6, End: float64(end.Nanoseconds()) / 1e6})
		t.mu.Unlock()
	}
}

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// meanMS is the mean duration of the named spans in ms (0 if none).
func (t *tracer) meanMS(name string) float64 {
	sum, n := t.sumMS(name)
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// sumMS is the summed duration of the named spans in ms, and their count.
func (t *tracer) sumMS(name string) (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
			n++
		}
	}
	return sum, n
}

// total returns the named counter.
func (t *tracer) total(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// writeSpans dumps the spans as JSON lines, ordered by start time.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
