package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// ManifestSchema versions the manifest layout; bump on incompatible
// field changes so downstream tooling can dispatch.
const ManifestSchema = "crspectre/manifest/v1"

// BuildInfo is the subset of runtime/debug.BuildInfo a manifest records.
type BuildInfo struct {
	GoVersion string `json:"go_version,omitempty"`
	Path      string `json:"path,omitempty"`
	VCS       string `json:"vcs,omitempty"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

// HostInfo records where a run executed.
type HostInfo struct {
	OS       string `json:"os,omitempty"`
	Arch     string `json:"arch,omitempty"`
	NumCPU   int    `json:"num_cpu,omitempty"`
	Hostname string `json:"hostname,omitempty"`
}

// Manifest is the per-run provenance record every CLI writes next to
// its results: what ran, with which configuration and seeds, on what
// build and host, how long it took, and what the metrics registry and
// event recorder accumulated. All maps serialise with sorted keys
// (encoding/json), so two runs with identical non-volatile content
// produce byte-identical files after ZeroVolatile.
type Manifest struct {
	Schema  string             `json:"schema"`
	Tool    string             `json:"tool"`
	RunID   string             `json:"run_id,omitempty"`
	Args    []string           `json:"args,omitempty"`
	Config  map[string]any     `json:"config,omitempty"`
	Seed    int64              `json:"seed,omitempty"`
	Workers int                `json:"workers,omitempty"`
	Start   string             `json:"start,omitempty"` // RFC 3339 UTC
	WallSec float64            `json:"wall_seconds,omitempty"`
	CPUSec  float64            `json:"cpu_seconds,omitempty"`
	Build   BuildInfo          `json:"build,omitempty"`
	Host    HostInfo           `json:"host,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// MetricKinds distinguishes each Metrics entry as "counter" or
	// "gauge" (schema note: additive in-place extension of v1; absent in
	// manifests written before the obs subsystem). Histograms are not
	// flattened into Metrics — they land structured in Histograms.
	MetricKinds map[string]string `json:"metric_kinds,omitempty"`
	// Histograms holds the registry's deterministic fixed-bucket
	// histograms (block-compile sizes, task instruction counts).
	// Volatile histograms — wall-clock task latencies — are excluded:
	// every number recorded here is worker-count-invariant, like every
	// other published metric. Sorted by name.
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
	// Progress is the final campaign-progress snapshot, one entry per
	// scheduler pool, sorted by pool name. Only the invariant lifecycle
	// totals are recorded (submitted/done/failed/instrs); rates, ETAs
	// and latency distributions are live-only obs surface.
	Progress []ProgressPool `json:"progress,omitempty"`
	// Events holds the recorder's monotonic per-kind totals — capacity-
	// and scheduling-independent, so deterministic across worker counts.
	Events map[string]uint64 `json:"events,omitempty"`
}

// ProgressPool is the manifest-recorded (worker-count-invariant) subset
// of one scheduler pool's progress. Defined here rather than in
// internal/sched so the manifest does not import the scheduler.
type ProgressPool struct {
	Name      string `json:"name"`
	Submitted uint64 `json:"submitted"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed,omitempty"`
	// Instrs is the total simulated instructions the pool's tasks
	// reported retiring (sched.ObserveInstrs).
	Instrs uint64 `json:"instrs,omitempty"`
}

// CPUTimeSupported reports whether processCPUSeconds returns a real
// measurement on this platform (false on the non-unix stub, where
// manifests carry an explicit cpu_time_unsupported gauge instead of a
// misleading zero).
func CPUTimeSupported() bool { return cpuTimeSupported }

// NewManifest starts a manifest for the named tool, stamping build and
// host provenance. Callers fill Config/Seed/Workers and call Finish
// before writing.
func NewManifest(tool string, args []string) *Manifest {
	m := &Manifest{
		Schema: ManifestSchema,
		Tool:   tool,
		Args:   args,
		Start:  time.Now().UTC().Format(time.RFC3339),
		Host: HostInfo{
			OS:     runtime.GOOS,
			Arch:   runtime.GOARCH,
			NumCPU: runtime.NumCPU(),
		},
	}
	if hn, err := os.Hostname(); err == nil {
		m.Host.Hostname = hn
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.Build.GoVersion = bi.GoVersion
		m.Build.Path = bi.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs":
				m.Build.VCS = s.Value
			case "vcs.revision":
				m.Build.Revision = s.Value
			case "vcs.modified":
				m.Build.Modified = s.Value == "true"
			}
		}
	}
	return m
}

// Finish stamps timings and drains the telemetry sinks (either may be
// nil) into the manifest. start is the moment the run began. On
// platforms without CPU-time accounting the misleading zero CPUSec is
// accompanied by an explicit cpu_time_unsupported gauge.
func (m *Manifest) Finish(start time.Time, reg *Registry, rec *Recorder) {
	m.WallSec = time.Since(start).Seconds()
	m.CPUSec = processCPUSeconds()
	if !cpuTimeSupported {
		reg.Set("cpu_time_unsupported", 1)
	}
	if reg != nil {
		snap := reg.Snapshot()
		m.Metrics = make(map[string]float64, len(snap))
		m.MetricKinds = make(map[string]string, len(snap))
		for _, mt := range snap {
			m.Metrics[mt.Name] = mt.Value
			kind := "gauge"
			if mt.Counter {
				kind = "counter"
			}
			m.MetricKinds[mt.Name] = kind
		}
		m.Histograms = reg.HistogramSnapshots(false)
	}
	if rec != nil {
		m.Events = rec.Counts()
	}
}

// RecordProgress stores the final campaign-progress snapshot (the
// invariant subset; see ProgressPool). Callers hand in what
// sched.Tracker.ManifestProgress returns.
func (m *Manifest) RecordProgress(pools []ProgressPool) {
	m.Progress = pools
}

// ZeroVolatile clears every field that legitimately differs between two
// runs of the same configuration — timings, host identity, build
// stamp, and argv — leaving only content that must be deterministic.
// The determinism suite compares manifests after this pass.
func (m *Manifest) ZeroVolatile() {
	m.RunID = ""
	m.Args = nil
	m.Start = ""
	m.WallSec = 0
	m.CPUSec = 0
	m.Build = BuildInfo{}
	m.Host = HostInfo{}
}

// MarshalIndent renders the manifest as stable, human-readable JSON.
func (m *Manifest) MarshalIndent() ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("telemetry: manifest: %w", err)
	}
	return append(b, '\n'), nil
}

// WriteFile writes the manifest to path, creating parent directories.
func (m *Manifest) WriteFile(path string) error {
	b, err := m.MarshalIndent()
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return WriteFileAtomic(path, b, 0o644)
}

// WriteFileAtomic writes data to path through a temporary file in the
// same directory and a rename, so path never holds a torn file: a reader,
// or a process killed mid-write, sees either the previous contents or all
// of data. It does not fsync, so it orders nothing against power loss. On
// any failure the temporary file is removed and path is left untouched.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(perm)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		_ = os.Remove(tmp) // best effort: the write already failed
		return err
	}
	return nil
}

// ReadManifest loads a manifest written by WriteFile.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("telemetry: manifest %s: %w", path, err)
	}
	return &m, nil
}
