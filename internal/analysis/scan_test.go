package analysis

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/progen"
	"repro/internal/rop"
	"repro/internal/sched"
	"repro/internal/spectre"
)

// scanSetHosts is speclint scan's host half: every MiBench workload's
// ROP host module under the uninit-secret policy.
func scanSetHosts(tb testing.TB) []ScanImage {
	tb.Helper()
	var out []ScanImage
	for _, w := range append(mibench.Suite(), mibench.Extended()...) {
		mod, err := w.HostModule(rop.HostOptions{})
		if err != nil {
			tb.Fatalf("host %s: %v", w.Name, err)
		}
		img, err := mod.Link(0x100000)
		if err != nil {
			tb.Fatalf("host %s: %v", w.Name, err)
		}
		out = append(out, ScanImage{
			Name: "host/" + w.Name,
			Img:  img,
			Cfg:  Config{MaxGadgetLen: 3, UninitSecret: true},
		})
	}
	return out
}

// scanSet is speclint scan's corpus without confirmation specs: every
// spectre variant, every MiBench host, and every generated gadget kind
// at each of seeds derived seeds.
func scanSet(tb testing.TB, seeds int) []ScanImage {
	tb.Helper()
	var out []ScanImage
	for _, v := range spectre.AllVariants() {
		mod, err := spectre.Config{Variant: v, TargetAddr: 0x123456}.Module()
		if err != nil {
			tb.Fatalf("spectre %s: %v", v, err)
		}
		img, err := mod.Link(0x200000)
		if err != nil {
			tb.Fatalf("spectre %s: %v", v, err)
		}
		out = append(out, ScanImage{
			Name: "spectre/" + v.String(),
			Img:  img,
			Cfg:  Config{TaintedRegs: spectre.StaticTaintRegs(), MaxGadgetLen: 3, UninitSecret: true},
		})
	}
	out = append(out, scanSetHosts(tb)...)
	for k := 0; k < seeds; k++ {
		s := sched.DeriveSeed(1, uint64(k))
		for _, kind := range progen.GadgetKinds() {
			p, meta := progen.GenerateGadget(s, kind)
			out = append(out, ScanImage{
				Name: fmt.Sprintf("progen/%s/%d", kind, s),
				Img:  &isa.Image{Base: p.CodeBase, Entry: p.CodeBase, Code: p.Code},
				Cfg:  Config{TaintedRegs: []uint8{meta.TaintReg}},
			})
		}
	}
	return out
}

// TestScanShardsMatchAnalyze: every (image, root) shard over the shared
// decode ranks exactly what the public one-shot Analyze path ranks, and
// the CFG recovered from the shared decode is RecoverCFG's. Block
// instruction windows must be capped so a caller's append cannot run
// into the next block's instructions.
func TestScanShardsMatchAnalyze(t *testing.T) {
	images := scanSet(t, 2)
	shards := 0
	for _, im := range images {
		code, base := im.Img.Code, im.Img.Base
		d := decodeImage(code, base)
		slots, _ := isa.DecodeSlots(code)
		roots := imageRoots(im.Img)
		for _, rs := range append([][]uint64{roots}, splitRoots(roots)...) {
			got, want := d.recoverCFG(rs...), RecoverCFG(code, base, rs...)
			if err := sameCFG(got, want); err != nil {
				t.Fatalf("%s roots %x: %v", im.Name, rs, err)
			}
			for _, start := range got.Order {
				b := got.Blocks[start]
				if cap(b.Instrs) != len(b.Instrs) || cap(b.Succs) != len(b.Succs) {
					t.Fatalf("%s block %#x: Instrs len %d cap %d, Succs len %d cap %d",
						im.Name, start, len(b.Instrs), cap(b.Instrs), len(b.Succs), cap(b.Succs))
				}
				for i, in := range b.Instrs {
					s := slots[int(start-base)/isa.InstrSize+i]
					if s.Err != nil || s.In != in {
						t.Fatalf("%s block %#x instr %d: %v, slot decodes to %v (%v)", im.Name, start, i, in, s.In, s.Err)
					}
				}
			}
		}
		for _, r := range roots {
			got := scanShard(im.Name, d, im.Cfg, r)
			want := RankFindings(im.Name, Analyze(code, base, im.Cfg, r))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s root %#x: shard ranks\n%+v\nAnalyze ranks\n%+v", im.Name, r, got, want)
			}
			shards++
		}
	}
	if len(images) < 30 || shards < 2*len(images) {
		t.Fatalf("corpus too small to mean anything: %d images, %d shards", len(images), shards)
	}
}

// splitRoots returns one single-root set per root.
func splitRoots(roots []uint64) [][]uint64 {
	out := make([][]uint64, len(roots))
	for i := range roots {
		out[i] = roots[i : i+1]
	}
	return out
}

// sameCFG compares two recovered graphs on everything a consumer reads.
func sameCFG(a, b *CFG) error {
	switch {
	case !reflect.DeepEqual(a.Order, b.Order):
		return fmt.Errorf("Order %x vs %x", a.Order, b.Order)
	case !reflect.DeepEqual(a.Roots, b.Roots):
		return fmt.Errorf("Roots %x vs %x", a.Roots, b.Roots)
	case !reflect.DeepEqual(a.IndirectSites, b.IndirectSites):
		return fmt.Errorf("IndirectSites %x vs %x", a.IndirectSites, b.IndirectSites)
	case !reflect.DeepEqual(a.InvalidTargets, b.InvalidTargets):
		return fmt.Errorf("InvalidTargets %x vs %x", a.InvalidTargets, b.InvalidTargets)
	case a.Truncated != b.Truncated:
		return fmt.Errorf("Truncated %d vs %d", a.Truncated, b.Truncated)
	}
	for _, start := range a.Order {
		x, y := a.Blocks[start], b.Blocks[start]
		if !reflect.DeepEqual(x.Succs, y.Succs) || !reflect.DeepEqual(x.Instrs, y.Instrs) ||
			x.Indirect != y.Indirect || x.Reachable != y.Reachable {
			return fmt.Errorf("block %#x: %+v vs %+v", start, x, y)
		}
	}
	return nil
}

// TestScanCorpusRejectsBadCorpus: a corpus the report validator would
// refuse fails before the fan-out, with the validator's error text. The
// cancelled context proves it: reaching sched.Map would report the
// cancellation instead.
func TestScanCorpusRejectsBadCorpus(t *testing.T) {
	good := scanFixture(t)[0]
	named := func(name string) ScanImage {
		im := good
		im.Name = name
		return im
	}
	noImg := named("gadget/none")
	noImg.Img = nil
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		images []ScanImage
		want   string
	}{
		{"empty name", []ScanImage{named("a"), named("")}, "analysis: image 1 has empty name"},
		{"duplicate name", []ScanImage{named("x"), named("y"), named("x")}, `analysis: duplicate image "x"`},
		{"nil image", []ScanImage{named("a"), noImg}, `analysis: image "gadget/none" has nil Img`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ScanCorpus(ctx, PolicyUninitSecret, tc.images, 1)
			if err == nil || err.Error() != tc.want {
				t.Fatalf("ScanCorpus error %v, want %q", err, tc.want)
			}
		})
	}
	if _, err := ScanCorpus(ctx, PolicyUninitSecret, []ScanImage{good}, 1); err == nil || strings.Contains(err.Error(), "name") {
		t.Fatalf("a clean corpus under a cancelled context returned %v, want the cancellation", err)
	}
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestScanCorpusAllocationBudget: the hosts-only, one-worker scan stays
// under 10 MB of allocation. Per-root re-decoding, per-instruction
// block appends and a discarded gadget census per shard allocated
// about 21.7 MB; the shared decode allocates about 6 MB.
func TestScanCorpusAllocationBudget(t *testing.T) {
	hosts := scanSetHosts(t)
	const budget = 10 << 20
	got := allocatedBytes(func() {
		if _, err := ScanCorpus(context.Background(), PolicyUninitSecret, hosts, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("hosts-only scan allocated %.1f MB", float64(got)/(1<<20))
	if got > budget {
		t.Fatalf("hosts-only scan allocated %d bytes, budget %d", got, budget)
	}
}

// BenchmarkScanCorpus times the static layer of a corpus scan: the 11
// MiBench hosts, no confirmation runs, one worker.
func BenchmarkScanCorpus(b *testing.B) {
	hosts := scanSetHosts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScanCorpus(context.Background(), PolicyUninitSecret, hosts, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverCFG times decoding plus CFG recovery of every MiBench
// host from all of its roots.
func BenchmarkRecoverCFG(b *testing.B) {
	hosts := scanSetHosts(b)
	roots := make([][]uint64, len(hosts))
	for i, im := range hosts {
		roots[i] = imageRoots(im.Img)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, im := range hosts {
			cfgSink = RecoverCFG(im.Img.Code, im.Img.Base, roots[k]...)
		}
	}
}

var cfgSink *CFG
