package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/experiments"
	"repro/internal/gadget"
	"repro/internal/hid"
	"repro/internal/mibench"
	"repro/internal/ml"
	"repro/internal/perturb"
	"repro/internal/pmu"
	"repro/internal/rop"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/trace"
	"repro/internal/vm"
)

// campaignHosts are the Table I kernels, each sized through its mibench
// constructor so one CR-Spectre attempt (paper perturbation included)
// retires about 3 M guest instructions on any host. With the stock
// Table1Workloads sizes attempts span 3-47 M instructions and op
// latency clusters by host.
func campaignHosts() []mibench.Workload {
	return []mibench.Workload{
		mibench.Math(12_650),
		mibench.Bitcount("bitcount", 12_600),
		mibench.SHA1(823),
		mibench.SHA2(949),
	}
}

// campaignCycle is the number of distinct attempts: op i runs attempt
// i % campaignCycle, host (i%16)/4 under variant (i%16)%4.
const campaignCycle = 16

// Load bases RunCR maps its images at (experiments' hostBase and
// attackBase); the traced decomposition must match them.
const (
	crHostBase   = 0x100000
	crAttackBase = 0x600000
)

type campaign struct {
	cfg      experiments.Config
	benign   *trace.Set
	det      *hid.Detector
	hosts    []mibench.Workload
	variants []spectre.Variant
	pins     []string

	mu      sync.Mutex
	stats   [campaignCycle]*guestStats // per attempt, from its first run
	digests [campaignCycle]string
}

// startCampaign profiles the benign and attack corpora, trains the MLP
// HID on them, and runs attempt 0.
func startCampaign(seed int64, tr *tracer) (session, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	cfg.Workers = 1
	end := tr.begin("experiments.corpus", 0)
	benign, err := cfg.BenignCorpus(mibench.AllWithBackgrounds(), cfg.SamplesPerClass)
	if err != nil {
		return nil, err
	}
	attack, err := cfg.AttackCorpus(cfg.SamplesPerClass)
	if err != nil {
		return nil, err
	}
	end()
	train := benign.Project(cfg.FeatureSize)
	if err := train.Merge(attack.Project(cfg.FeatureSize)); err != nil {
		return nil, err
	}
	end = tr.begin("ml.train", 0)
	det := hid.New(ml.NewMLP(seed))
	err = det.Train(train.Data)
	end()
	if err != nil {
		return nil, fmt.Errorf("train hid: %w", err)
	}
	c := &campaign{
		cfg: cfg, benign: benign, det: det,
		hosts: campaignHosts(), variants: spectre.Variants(),
		pins: pinsFor(seed, campaignPins),
	}
	if err := c.op(0, tr)(); err != nil {
		return nil, fmt.Errorf("op 0: %w", err)
	}
	return c, nil
}

func (c *campaign) attempt(i int) (mibench.Workload, experiments.AttackSpec, int64) {
	k := i % campaignCycle
	p := perturb.Paper()
	spec := experiments.AttackSpec{Variant: c.variants[k%len(c.variants)], Perturb: &p}
	return c.hosts[k/len(c.variants)], spec, sched.DeriveSeed(c.cfg.Seed, uint64(k))
}

func (c *campaign) op(i int, tr *tracer) func() error {
	host, spec, seed := c.attempt(i)
	var (
		cr  *experiments.CRResult
		err error
	)
	if tr == nil {
		cr, err = experiments.RunCR(c.cfg, host, spec, seed)
	} else {
		cr, err = c.decomposedCR(i, tr, host, spec, seed)
	}
	if err != nil {
		return func() error { return err }
	}
	end := tr.begin("hid.score", i)
	eval, err := experiments.CREvalSet(c.cfg, cr, c.benign)
	if err != nil {
		return func() error { return err }
	}
	acc := c.det.Accuracy(eval.Data)
	end()
	return func() error { return c.check(i, seed, cr, acc) }
}

// check holds an attempt to the attack's success, its pin, and the
// statistics of the attempt's first run.
func (c *campaign) check(i int, seed int64, cr *experiments.CRResult, acc float64) error {
	switch {
	case !cr.Injected:
		return errors.New("the ROP chain did not exec the attack binary")
	case cr.Recovered != c.cfg.Secret:
		return fmt.Errorf("recovered %q, want %q", cr.Recovered, c.cfg.Secret)
	}
	g := statsOf(cr.Machine.CPU)
	g.Samples = uint64(len(cr.Samples))
	k := i % campaignCycle
	digest := attemptDigest(seed, cr, acc)
	if err := checkPin(c.pins, k, digest); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.stats[k]; prev == nil {
		c.stats[k], c.digests[k] = &g, digest
	} else if *prev != g || c.digests[k] != digest {
		return fmt.Errorf("attempt %d is not deterministic: %+v then %+v", k, *prev, g)
	}
	return nil
}

// attemptDigest covers one attempt's simulated statistics: the PMU
// counter snapshot (instret and cycles included), the stolen bytes, the
// chain geometry and the HID's accuracy on the attempt.
func attemptDigest(seed int64, cr *experiments.CRResult, acc float64) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%q|%t|%d|%d|%+v|%x", seed, cr.Recovered, cr.Injected, cr.ChainWords,
		len(cr.Samples), cr.Machine.CPU.Snapshot(), math.Float64bits(acc))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// decomposedCR replays the layer calls RunCR composes, one span per
// layer. op checks its outcome like RunCR's, and the statistics check
// holds it to the untraced run of the same attempt.
func (c *campaign) decomposedCR(i int, tr *tracer, host mibench.Workload, spec experiments.AttackSpec, seed int64) (*experiments.CRResult, error) {
	end := tr.begin("isa.assemble", i)
	hostMod, err := host.HostModule(rop.HostOptions{Secret: c.cfg.Secret})
	end()
	if err != nil {
		return nil, err
	}

	end = tr.begin("vm.build", i)
	mc := vm.DefaultConfig()
	mc.CPU = c.cfg.CPU
	mc.ASLR = true
	mc.ASLRSeed = seed
	m := vm.New(mc)
	m.Register(host.Name, hostMod, crHostBase)
	hostImg, err := m.Load(host.Name)
	end()
	if err != nil {
		return nil, err
	}

	end = tr.begin("isa.assemble", i)
	attMod, err := spectre.Config{
		Variant:    spec.Variant,
		TargetAddr: hostImg.MustSymbol("__secret"),
		SecretLen:  len(c.cfg.Secret),
		PerturbAsm: spec.Perturb.Asm(),
		ResumePath: host.Name + "#workload_entry",
	}.Module()
	end()
	if err != nil {
		return nil, err
	}
	m.Register("crspectre", attMod, crAttackBase)

	end = tr.begin("gadget.scan", i)
	cat := gadget.ScanAndCatalog(hostImg, 3)
	end()
	end = tr.begin("rop.plan", i)
	plan, err := rop.PlanInjection(cat, "crspectre", nil)
	end()
	if err != nil {
		return nil, err
	}

	end = tr.begin("pmu.guest_run", i)
	if _, err := m.SetArg(plan.Payload); err != nil {
		return nil, err
	}
	if err := m.Start(host.Name); err != nil {
		return nil, err
	}
	sampler := &pmu.Sampler{Interval: c.cfg.Interval, Events: pmu.AllEvents()}
	samples, err := sampler.Run(m.CPU, c.cfg.Budget)
	end()
	if err != nil {
		return nil, err
	}
	rec := m.Output.String()
	if len(rec) > len(c.cfg.Secret) {
		rec = rec[:len(c.cfg.Secret)]
	}
	injected := false
	for _, e := range m.ExecLog {
		injected = injected || e == "crspectre"
	}
	return &experiments.CRResult{Samples: samples, Recovered: rec, Machine: m,
		Injected: injected, ChainWords: plan.Chain.Len()}, nil
}

func (c *campaign) guest(i int) (guestStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.stats[i%campaignCycle]
	if g == nil {
		return guestStats{}, fmt.Errorf("attempt %d never ran", i%campaignCycle)
	}
	return *g, nil
}

func (c *campaign) layers(tr *tracer, n int, m metricSet) error {
	m.set("experiments.corpus_s", tr.meanMS("experiments.corpus")/1e3)
	m.set("ml.train_s", tr.meanMS("ml.train")/1e3)
	// Two assemblies per op: the host and the attack binary.
	m.set("isa.assemble_ms", 2*tr.meanMS("isa.assemble"))
	m.set("vm.build_ms", tr.meanMS("vm.build"))
	m.set("gadget.scan_ms", tr.meanMS("gadget.scan"))
	m.set("rop.plan_ms", tr.meanMS("rop.plan"))
	m.set("hid.score_ms", tr.meanMS("hid.score"))
	m.set("pmu.guest_run_ms", tr.meanMS("pmu.guest_run"))
	m.set("cpu.host_ns_per_guest_instr", tr.meanMS("pmu.guest_run")*1e6/m["cpu.guest_instrs_per_op"])
	// The corpus fan-out: one task per benign workload and attack variant.
	m.set("sched.map_us_per_task", schedMapUS(len(mibench.AllWithBackgrounds())+len(spectre.Variants()), c.cfg.Workers))
	return nil
}

func (c *campaign) describe(notes map[string]any) {
	var hosts []string
	for _, h := range c.hosts {
		hosts = append(hosts, h.Name)
	}
	notes["campaign"] = map[string]any{
		"hosts": hosts, "variants": len(c.variants), "attempt_cycle": campaignCycle,
		"perturbation": "paper", "hid": "mlp", "samples_per_class": c.cfg.SamplesPerClass,
		"pinned": c.pins != nil,
	}
	c.mu.Lock()
	notes["digests"] = c.digests
	c.mu.Unlock()
}

func (c *campaign) close() {}
