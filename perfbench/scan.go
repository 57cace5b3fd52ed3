package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/progen"
	"repro/internal/rop"
	"repro/internal/sched"
	"repro/internal/spectre"
	"repro/internal/telemetry"
)

// The gadget-scan corpus is `speclint scan -progen 48`'s: every spectre
// variant, every MiBench host, and 48 generated gadget programs with
// forced-speculation confirmation.
const (
	scanProgen    = 48
	scanMaxInstr  = 200_000
	scanWorkers   = 2
	hostGadgetLen = 3
)

// scanAttackVariants are the spectre images on the attack side of the
// ranking gate (speclint's scanAttackVariants).
var scanAttackVariants = map[spectre.Variant]bool{
	spectre.V1BoundsCheck: true,
	spectre.VBTB:          true,
	spectre.V2CrossTrain:  true,
}

// gadgetSecrets are the two planted secrets ConfirmGadget runs with.
var gadgetSecrets = [2]byte{0x47, 0xB3}

func scanCorpus(seed int64) ([]analysis.ScanImage, error) {
	var out []analysis.ScanImage
	for _, v := range spectre.AllVariants() {
		mod, err := spectre.Config{Variant: v, TargetAddr: 0x123456}.Module()
		if err != nil {
			return nil, fmt.Errorf("spectre %s: %w", v, err)
		}
		img, err := mod.Link(0x200000)
		if err != nil {
			return nil, fmt.Errorf("spectre %s: %w", v, err)
		}
		out = append(out, analysis.ScanImage{
			Name:   "spectre/" + v.String(),
			Img:    img,
			Cfg:    analysis.Config{TaintedRegs: spectre.StaticTaintRegs(), MaxGadgetLen: hostGadgetLen, UninitSecret: true},
			Attack: scanAttackVariants[v],
		})
	}
	for _, w := range append(mibench.Suite(), mibench.Extended()...) {
		mod, err := w.HostModule(rop.HostOptions{})
		if err != nil {
			return nil, fmt.Errorf("host %s: %w", w.Name, err)
		}
		img, err := mod.Link(0x100000)
		if err != nil {
			return nil, fmt.Errorf("host %s: %w", w.Name, err)
		}
		out = append(out, analysis.ScanImage{
			Name: "host/" + w.Name,
			Img:  img,
			Cfg:  analysis.Config{MaxGadgetLen: hostGadgetLen, UninitSecret: true},
		})
	}
	kinds := progen.GadgetKinds()
	for i := 0; i < scanProgen; i++ {
		kind := kinds[i%len(kinds)]
		s := sched.DeriveSeed(seed, uint64(i/len(kinds)))
		p, meta := progen.GenerateGadget(s, kind)
		out = append(out, analysis.ScanImage{
			Name:   fmt.Sprintf("progen/%s/%d", kind, s),
			Img:    &isa.Image{Base: p.CodeBase, Entry: p.CodeBase, Code: p.Code},
			Cfg:    analysis.Config{TaintedRegs: []uint8{meta.TaintReg}},
			Attack: kind.ExpectLeak(),
			Confirm: &analysis.ConfirmSpec{
				Prog: p, Meta: meta, CPU: cpu.DefaultConfig(), MaxInstr: scanMaxInstr,
			},
		})
	}
	return out, nil
}

type scan struct {
	images []analysis.ScanImage
	pins   []string
	ref    []byte // the report at one worker
	census *guestStats
}

// startScan builds the corpus images and runs scan 0.
func startScan(seed int64, tr *tracer) (session, error) {
	images, err := scanCorpus(seed)
	if err != nil {
		return nil, err
	}
	s := &scan{images: images, pins: pinsFor(seed, scanPins)}
	if err := s.op(0, tr)(); err != nil {
		return nil, fmt.Errorf("scan 0: %w", err)
	}
	return s, nil
}

func scanBytes(workers int, images []analysis.ScanImage) ([]byte, error) {
	rep, err := analysis.ScanCorpus(context.Background(), analysis.PolicyUninitSecret, images, workers)
	if err != nil {
		return nil, err
	}
	return analysis.EncodeFindings(rep)
}

// prepare makes the one-worker reference every op's bytes must equal.
func (s *scan) prepare() error {
	ref, err := scanBytes(1, s.images)
	if err != nil {
		return err
	}
	s.ref = ref
	return nil
}

// op is one whole-corpus scan at scanWorkers plus the report encoding.
func (s *scan) op(i int, tr *tracer) func() error {
	end := tr.begin("analysis.scan_corpus", i)
	blob, err := scanBytes(scanWorkers, s.images)
	end()
	return func() error {
		if err != nil {
			return err
		}
		rep, err := analysis.DecodeFindings(blob)
		if err != nil {
			return err
		}
		if err := rep.GateRanking(); err != nil {
			return err
		}
		if s.ref != nil && !bytes.Equal(blob, s.ref) {
			return fmt.Errorf("report at %d workers differs from the one-worker report", scanWorkers)
		}
		return checkPin(s.pins, 0, digestBytes(blob))
	}
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// guest replays the confirmation runs ScanCorpus makes (ConfirmGadget
// exposes no counters); every op scans the same corpus, so once.
func (s *scan) guest(int) (guestStats, error) {
	if s.census == nil {
		g, err := s.replay(nil)
		if err != nil {
			return g, err
		}
		s.census = &g
	}
	return *s.census, nil
}

// replay reruns every planted image's confirmation and checks that it
// reaches ConfirmGadget's verdict.
func (s *scan) replay(tr *tracer) (guestStats, error) {
	var g guestStats
	for _, im := range s.images {
		sp := im.Confirm
		if sp == nil {
			continue
		}
		w, err := analysis.ConfirmGadget(sp.Prog, sp.Meta, sp.CPU, sp.MaxInstr)
		if err != nil {
			return g, err
		}
		confirmed := true
		for i := 0; confirmed && i < len(gadgetSecrets); i++ {
			gi, ok, err := replayConfirmRun(sp, gadgetSecrets[i], gadgetSecrets[1-i], tr)
			if err != nil {
				return g, err
			}
			g.add(gi)
			confirmed = ok
		}
		if confirmed != (w != nil) {
			return g, fmt.Errorf("%s: replayed confirmation %t, ConfirmGadget %t", im.Name, confirmed, w != nil)
		}
	}
	return g, nil
}

// replayConfirmRun is one of ConfirmGadget's forced-wrong-path runs. It
// reports whether the covert-probe events single out the planted
// secret's line.
func replayConfirmRun(sp *analysis.ConfirmSpec, secret, other byte, tr *tracer) (guestStats, bool, error) {
	m, err := sp.Prog.NewMem()
	if err != nil {
		return guestStats{}, false, err
	}
	meta := sp.Meta
	if err := m.LoadRaw(meta.SecretAddr, []byte{secret}); err != nil {
		return guestStats{}, false, err
	}
	cfg := sp.CPU
	cfg.ForceWrongPath = true
	c := cpu.New(m, cfg)
	rec := telemetry.NewRecorder(0)
	for k := telemetry.Kind(0); k < telemetry.NumKinds; k++ {
		if k != telemetry.KindCovertProbe {
			rec.Exclude(k)
		}
	}
	c.AttachTelemetry(rec)
	c.SetProbeWindow(meta.ProbeBase, meta.ProbeBase+256*meta.ProbeStride)
	c.PC = sp.Prog.CodeBase
	c.Regs[isa.RegSP] = sp.Prog.StackTop
	c.Regs[meta.TaintReg] = meta.TaintVal
	end := tr.begin("guest.run", 0)
	err = c.Run(sp.MaxInstr)
	end()
	if err != nil || !c.Halted() {
		return guestStats{}, false, fmt.Errorf("confirm replay did not halt cleanly: %v", err)
	}
	self := meta.ProbeBase + uint64(secret)*meta.ProbeStride
	otherLine := meta.ProbeBase + uint64(other)*meta.ProbeStride
	hit := false
	for _, ev := range rec.Events() {
		if ev.Kind != telemetry.KindCovertProbe {
			continue
		}
		if ev.Addr == otherLine {
			return statsOf(c), false, nil
		}
		hit = hit || ev.Addr == self
	}
	return statsOf(c), hit, nil
}

// layerReps is how many times each scan layer probe is repeated; the
// metric is the median.
const layerReps = 5

func (s *scan) layers(tr *tracer, n int, m metricSet) error {
	var static, confirm []analysis.ScanImage
	for _, im := range s.images {
		bare := im
		bare.Confirm = nil
		static = append(static, bare)
		if im.Confirm != nil {
			confirm = append(confirm, im)
		}
	}
	rep, err := analysis.DecodeFindings(s.ref)
	if err != nil {
		return err
	}
	roots := 0
	for _, im := range rep.Images {
		roots += im.Roots
	}
	var staticMS, confirmMS, reportMS []float64
	for r := 0; r < layerReps; r++ {
		t0 := time.Now()
		if _, err := scanBytes(scanWorkers, static); err != nil {
			return err
		}
		staticMS = append(staticMS, msSince(t0))

		t0 = time.Now()
		_, err := sched.Map(context.Background(), scanWorkers, len(confirm), func(_ context.Context, i int) (*analysis.ConfirmWitness, error) {
			sp := confirm[i].Confirm
			return analysis.ConfirmGadget(sp.Prog, sp.Meta, sp.CPU, sp.MaxInstr)
		})
		if err != nil {
			return err
		}
		confirmMS = append(confirmMS, msSince(t0))

		t0 = time.Now()
		blob, err := analysis.EncodeFindings(rep)
		if err != nil {
			return err
		}
		back, err := analysis.DecodeFindings(blob)
		if err != nil {
			return err
		}
		if err := back.GateRanking(); err != nil {
			return err
		}
		reportMS = append(reportMS, msSince(t0))
	}
	m.set("analysis.static_ms", median(staticMS))
	m.set("analysis.confirm_ms", median(confirmMS))
	m.set("analysis.report_ms", median(reportMS))
	m.set("sched.map_us_per_task", schedMapUS(roots, scanWorkers))
	confirmed := 0
	for _, f := range rep.Findings {
		if f.Verdict == analysis.VerdictConfirmed {
			confirmed++
		}
	}
	m.set("analysis.findings_per_op", float64(len(rep.Findings)))
	m.set("analysis.confirmed_per_op", float64(confirmed))

	g, err := s.replay(tr)
	if err != nil {
		return err
	}
	runMS, _ := tr.sumMS("guest.run")
	m.set("cpu.host_ns_per_guest_instr", runMS*1e6/float64(g.Instrs))
	return nil
}

func (s *scan) describe(notes map[string]any) {
	notes["gadget_scan"] = map[string]any{
		"images": len(s.images), "progen": scanProgen, "workers": scanWorkers,
		"reference_workers": 1, "pinned": s.pins != nil,
	}
	if s.ref != nil {
		notes["digests"] = []string{digestBytes(s.ref)}
	}
}

func (s *scan) close() {}
