package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/controlapi"
	"repro/internal/defense"
	"repro/internal/gadget"
	"repro/internal/mibench"
	"repro/internal/rop"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/vm"
)

// Daemon jobs rotate over the paper's averaged variants × these postures.
var daemonPostures = []string{"dep", "dep-aslr", "invisispec", "fence"}

const (
	daemonCycle = 16 // 4 variants × 4 postures; op i submits spec i % 16
	daemonReps  = 16
	// pollInterval is the fixed Status polling period. Completion is
	// never detected through WaitDone or /events, whose 50-200 ms ticks
	// would dominate a ~25 ms job.
	pollInterval = 2 * time.Millisecond
	jobTimeout   = 2 * time.Minute
)

// attackFile is the daemon's attack.json artifact.
type attackFile struct {
	Variant   string          `json:"variant"`
	Posture   string          `json:"posture"`
	Seed      int64           `json:"seed"`
	Reps      int             `json:"reps"`
	Successes int             `json:"successes"`
	Injected  int             `json:"injected"`
	Stages    map[string]int  `json:"stages"`
	First     defense.Outcome `json:"first_outcome"`
}

// manifestFile is the part of a job's manifest.json the benchmark reads.
type manifestFile struct {
	WallSec float64           `json:"wall_seconds"`
	Events  map[string]uint64 `json:"events"`
}

// expectedStage is where every rep of every daemon job must stop. The
// daemon's attacker always plants the canary word it leaked, so against
// these canary-less postures the overflow misaligns the ROP chain and
// the host faults before the attack binary is exec'd: no rep injects,
// whatever the speculation defense.
const expectedStage = defense.StageInject

type daemon struct {
	dir    string
	srv    *controlapi.Server
	hs     *http.Server
	served chan error
	cl     *client.Client
	seed   int64
	pins   []string
	polls  atomic.Int64

	mu      sync.Mutex
	digests [daemonCycle]string
	first   [daemonCycle]*defense.Outcome // rep 0 outcome the daemon reported

	census [daemonCycle]*guestStats // filled after the loop
}

// startDaemon starts crspectred's control API on a loopback listener
// (MaxJobs 2, DefaultWorkers 1) and completes job 0 through the client.
func startDaemon(seed int64, tr *tracer) (session, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "daemon-")
	if err != nil {
		return nil, err
	}
	srv, err := controlapi.New(controlapi.Options{DataDir: dir, MaxJobs: 2, DefaultWorkers: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{dir: dir, srv: srv, hs: &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1), seed: seed, pins: pinsFor(seed, daemonPins)}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.cl = client.New("http://" + ln.Addr().String())
	if err := d.op(0, tr)(); err != nil {
		d.close()
		return nil, fmt.Errorf("job 0: %w", err)
	}
	return d, nil
}

func (d *daemon) spec(i int) controlapi.JobSpec {
	k := i % daemonCycle
	variants := spectre.Variants()
	seed := sched.DeriveSeed(d.seed, uint64(k))
	if seed == 0 {
		seed = 1 // 0 means "default" on the wire
	}
	return controlapi.JobSpec{
		Kind: "attack", Seed: seed, Workers: 1, Reps: daemonReps,
		Variant: variants[k%len(variants)].String(), Posture: daemonPostures[k/len(variants)],
	}
}

// op submits job spec i % 16, polls its status at pollInterval until it
// is terminal, fetches attack.json and manifest.json, and checks them.
func (d *daemon) op(i int, tr *tracer) func() error {
	spec := d.spec(i)
	t0 := time.Now()
	st, attackJSON, manifestJSON, err := d.runJob(i, spec, tr)
	latency := time.Since(t0)
	if err != nil {
		return func() error { return err }
	}
	return func() error {
		var att attackFile
		if err := json.Unmarshal(attackJSON, &att); err != nil {
			return fmt.Errorf("attack.json: %w", err)
		}
		if err := checkAttack(spec, att); err != nil {
			return err
		}
		var man manifestFile
		if err := json.Unmarshal(manifestJSON, &man); err != nil {
			return fmt.Errorf("manifest.json: %w", err)
		}
		if man.WallSec <= 0 {
			return errors.New("manifest.json: no wall_seconds")
		}
		k := i % daemonCycle
		digest := digestBytes(attackJSON)
		if err := checkPin(d.pins, k, digest); err != nil {
			return err
		}
		d.mu.Lock()
		if d.digests[k] == "" {
			d.digests[k], d.first[k] = digest, &att.First
		} else if d.digests[k] != digest {
			d.mu.Unlock()
			return fmt.Errorf("job spec %d is not deterministic", k)
		}
		d.mu.Unlock()

		if tr != nil {
			tr.count("controlapi.engine_ms", man.WallSec*1e3)
			tr.count("controlapi.overhead_ms", float64(latency.Nanoseconds())/1e6-man.WallSec*1e3)
			for _, a := range st.Artifacts {
				tr.count("controlapi.artifact_bytes", float64(a.Size))
			}
			for _, n := range man.Events {
				tr.count("telemetry.events", float64(n))
			}
		}
		return nil
	}
}

// runJob submits one job, polls its status at pollInterval until it is
// terminal, and fetches attack.json and manifest.json.
func (d *daemon) runJob(i int, spec controlapi.JobSpec, tr *tracer) (controlapi.JobStatus, []byte, []byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	end := tr.begin("client.submit", i)
	st, err := d.cl.Submit(ctx, spec)
	end()
	if err != nil {
		return st, nil, nil, err
	}
	polls := 0
	for !st.State.Terminal() {
		time.Sleep(pollInterval)
		if st, err = d.cl.Status(ctx, st.ID); err != nil {
			return st, nil, nil, err
		}
		polls++
	}
	d.polls.Add(int64(polls))
	tr.count("client.status_polls", float64(polls))
	if st.State != controlapi.StateDone {
		return st, nil, nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	var attackJSON, manifestJSON bytes.Buffer
	end = tr.begin("client.fetch", i)
	defer end()
	if _, err := d.cl.Fetch(ctx, st.ID, "attack.json", &attackJSON); err != nil {
		return st, nil, nil, err
	}
	if _, err := d.cl.Fetch(ctx, st.ID, "manifest.json", &manifestJSON); err != nil {
		return st, nil, nil, err
	}
	return st, attackJSON.Bytes(), manifestJSON.Bytes(), nil
}

func checkAttack(spec controlapi.JobSpec, att attackFile) error {
	if att.Variant != spec.Variant || att.Posture != spec.Posture || att.Seed != spec.Seed || att.Reps != spec.Reps {
		return fmt.Errorf("attack.json describes %s/%s seed %d x%d, submitted %s/%s seed %d x%d",
			att.Variant, att.Posture, att.Seed, att.Reps, spec.Variant, spec.Posture, spec.Seed, spec.Reps)
	}
	if att.Successes != 0 || att.Injected != 0 || len(att.Stages) != 1 || att.Stages[string(expectedStage)] != spec.Reps {
		return fmt.Errorf("attack.json outcome: %d successes, %d injected, stages %v; want 0, 0, {%s:%d}",
			att.Successes, att.Injected, att.Stages, expectedStage, spec.Reps)
	}
	return nil
}

// guest reports job spec i%16's simulated statistics, replayed once
// per spec: the daemon exposes no guest counters.
func (d *daemon) guest(i int) (guestStats, error) {
	k := i % daemonCycle
	if g := d.census[k]; g != nil {
		return *g, nil
	}
	g, err := d.replay(k, nil)
	if err != nil {
		return g, err
	}
	d.census[k] = &g
	return g, nil
}

// replay runs job spec k's repetitions through the layer calls
// defense.Evaluate composes and checks that they reproduce the outcome
// the daemon reported.
func (d *daemon) replay(k int, tr *tracer) (guestStats, error) {
	d.mu.Lock()
	first := d.first[k]
	d.mu.Unlock()
	if first == nil {
		return guestStats{}, fmt.Errorf("job spec %d never ran", k)
	}
	spec := d.spec(k)
	posture, atk := d.attack(spec)
	var g guestStats
	for r := 0; r < spec.Reps; r++ {
		out, gr, err := replayEvaluate(posture, atk, sched.DeriveSeed(spec.Seed, uint64(r)), tr)
		if err != nil {
			return guestStats{}, err
		}
		if out.Stage != expectedStage {
			return guestStats{}, fmt.Errorf("spec %d rep %d replay reached %s", k, r, out.Stage)
		}
		if r == 0 && (out.Stage != first.Stage || out.Recovered != first.Recovered ||
			out.Injected != first.Injected || out.Aborted != first.Aborted || out.Faulted != first.Faulted) {
			return guestStats{}, fmt.Errorf("spec %d replay %+v differs from the daemon's %+v", k, out, *first)
		}
		g.add(gr)
	}
	return g, nil
}

// attack resolves a job spec into what controlapi's attack kind runs:
// the posture and the adaptive attacker with both info leaks.
func (d *daemon) attack(spec controlapi.JobSpec) (defense.Posture, defense.Attacker) {
	variant, _ := spectre.VariantByName(spec.Variant)
	posture, _ := defense.PostureByName(spec.Posture)
	return posture, defense.Attacker{Variant: variant, LeakCanary: true, LeakLayout: true}
}

// replayEvaluate performs defense.Evaluate's steps one layer call at a
// time: assemble, build the machine, run the debug-path info leak, plan
// the ROP chain, and run the overflow. It returns the outcome fields the
// daemon reports (not Detail) plus the machine's simulated statistics.
func replayEvaluate(p defense.Posture, atk defense.Attacker, seed int64, tr *tracer) (defense.Outcome, guestStats, error) {
	var out defense.Outcome
	end := tr.begin("isa.assemble", 0)
	hostMod, err := mibench.Math(150).HostModule(rop.HostOptions{Canary: p.Canary, Secret: defense.Secret})
	end()
	if err != nil {
		return out, guestStats{}, err
	}
	cfg := vm.DefaultConfig()
	cfg.ASLR = p.ASLR
	cfg.ASLRSeed = seed
	cfg.StackExecutable = !p.DEP
	cfg.CPU.PrivilegedFlush = p.PrivilegedFlush
	cfg.CPU.SquashCacheEffects = p.InvisiSpec
	cfg.CPU.FenceConditional = p.CSFencing
	cfg.CPU.SpeculationEnabled = !p.NoSpeculation
	cfg.CPU.DisableStoreBypass = p.SSBD
	m := vm.New(cfg)
	m.Register("host", hostMod, 0x100000)
	hostImg, err := m.Load("host")
	if err != nil {
		return out, guestStats{}, err
	}
	if p.Canary {
		if err := m.Mem.Write64(hostImg.MustSymbol("__canary"), uint64(0x5ca1ab1e0dd5)^uint64(seed)*2654435761); err != nil {
			return out, guestStats{}, err
		}
	}

	end = tr.begin("guest.run", 0)
	planBase := uint64(0x100000)
	var leakedCanary *uint64
	if atk.LeakLayout || atk.LeakCanary {
		leak, err := rop.LeakViaDebug(m, "host", 100_000_000)
		if err != nil {
			end()
			return defense.Outcome{Stage: defense.StagePayload}, statsOf(m.CPU), nil
		}
		if atk.LeakLayout {
			planBase = leak.Base
		}
		if atk.LeakCanary {
			leakedCanary = &leak.Canary
		}
	}
	end()
	planImg := hostImg
	if planImg.Base != planBase {
		if planImg, err = hostMod.Link(planBase); err != nil {
			return out, guestStats{}, err
		}
	}

	end = tr.begin("isa.assemble", 0)
	attMod, err := spectre.Config{
		Variant: atk.Variant, TargetAddr: planImg.MustSymbol("__secret"),
		SecretLen: len(defense.Secret), Harden: hardening(p),
	}.Module()
	end()
	if err != nil {
		return out, guestStats{}, err
	}
	m.Register("attack", attMod, 0x600000)

	var payload []byte
	if !p.DEP {
		payload, _, err = rop.BuildShellcodePayload("attack", rop.ShellcodeBufAddr(m.StackTop(), p.Canary), leakedCanary)
	} else {
		end = tr.begin("gadget.scan", 0)
		cat := gadget.ScanAndCatalog(planImg, 3)
		end()
		end = tr.begin("rop.plan", 0)
		var plan *rop.Plan
		plan, err = rop.PlanInjection(cat, "attack", leakedCanary)
		end()
		if plan != nil {
			payload = plan.Payload
		}
	}
	if err != nil {
		return defense.Outcome{Stage: defense.StagePayload}, statsOf(m.CPU), nil
	}

	end = tr.begin("guest.run", 0)
	runErr := m.Exec("host", payload, 200_000_000)
	end()
	out.Stage = defense.StageInject
	out.Recovered = m.Output.String()
	if len(out.Recovered) > len(defense.Secret) {
		out.Recovered = out.Recovered[:len(defense.Secret)]
	}
	for _, e := range m.ExecLog {
		if e == "attack" {
			out.Injected, out.Stage = true, defense.StageLeak
		}
	}
	out.Aborted, out.Faulted = m.Aborted, runErr != nil
	if out.Recovered == defense.Secret {
		out.Stage, out.Success = defense.StageComplete, true
	}
	return out, statsOf(m.CPU), nil
}

// hardening mirrors defense's posture-to-codegen mapping.
func hardening(p defense.Posture) spectre.Hardening {
	switch {
	case p.IndexMasking:
		return spectre.HardenIndexMask
	case p.SLH:
		return spectre.HardenSLH
	case p.Retpoline:
		return spectre.HardenRetpoline
	case p.FenceInsertion:
		return spectre.HardenFence
	}
	return spectre.HardenNone
}

func (d *daemon) layers(tr *tracer, n int, m metricSet) error {
	perOp := func(counter string) float64 { return tr.total(counter) / float64(n) }
	m.set("client.submit_ms", tr.meanMS("client.submit"))
	m.set("client.fetch_ms", tr.meanMS("client.fetch"))
	m.set("client.status_polls_per_op", perOp("client.status_polls"))
	m.set("controlapi.overhead_ms_per_job", perOp("controlapi.overhead_ms"))
	m.set("controlapi.engine_ms_per_job", perOp("controlapi.engine_ms"))
	m.set("controlapi.artifact_kb_per_job", perOp("controlapi.artifact_bytes")/1024)
	m.set("telemetry.events_per_job", perOp("telemetry.events"))
	// The loops ran ops 1..n twice.
	m.set("runtime.retained_mb_per_job", tr.total("runtime.heap_growth_mb")/float64(2*n))

	// The job's layers, timed directly on the specs the loops ran (ops
	// 0..n): whole evaluations, bare machine construction, and the
	// replayed decomposition.
	var evalMS, buildMS []float64
	var g guestStats
	specs := min(daemonCycle, n+1)
	for k := 0; k < specs; k++ {
		spec := d.spec(k)
		posture, atk := d.attack(spec)
		for r := 0; r < spec.Reps; r++ {
			t0 := time.Now()
			if _, err := defense.Evaluate(posture, atk, sched.DeriveSeed(spec.Seed, uint64(r))); err != nil {
				return err
			}
			evalMS = append(evalMS, msSince(t0))
			t0 = time.Now()
			_ = vm.New(vm.DefaultConfig())
			buildMS = append(buildMS, msSince(t0))
		}
		gk, err := d.replay(k, tr)
		if err != nil {
			return err
		}
		g.add(gk)
	}
	m.set("defense.evaluate_ms_per_rep", median(evalMS))
	m.set("vm.build_ms", median(buildMS))
	perJob := func(span string) float64 {
		sum, _ := tr.sumMS(span)
		return sum / float64(specs)
	}
	m.set("isa.assemble_ms", perJob("isa.assemble"))
	m.set("gadget.scan_ms", perJob("gadget.scan"))
	m.set("rop.plan_ms", perJob("rop.plan"))
	runMS, _ := tr.sumMS("guest.run")
	m.set("cpu.host_ns_per_guest_instr", runMS*1e6/float64(g.Instrs))
	m.set("sched.map_us_per_task", schedMapUS(daemonReps, 1))
	return nil
}

func (d *daemon) describe(notes map[string]any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	notes["daemon"] = map[string]any{
		"max_jobs": 2, "default_workers": 1, "reps_per_job": daemonReps,
		"postures": daemonPostures, "spec_cycle": daemonCycle,
		"status_poll_interval_ms": float64(pollInterval) / float64(time.Millisecond),
		"status_polls":            d.polls.Load(),
		"completion":              "fixed-interval Status polling; no WaitDone or /events",
		"pinned":                  d.pins != nil,
	}
	notes["digests"] = d.digests
}

func (d *daemon) close() {
	d.srv.Close()
	_ = d.hs.Close() // the listener's error is the only one, and it is reported by Serve
	<-d.served
	os.RemoveAll(d.dir)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
