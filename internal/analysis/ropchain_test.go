package analysis

import (
	"testing"

	"repro/internal/gadget"
	"repro/internal/isa"
)

const scanLen = 4

func TestSummarizeCrafted(t *testing.T) {
	code := enc(t,
		isa.Instruction{Op: isa.MOVI, Rd: 1, Imm: 7},
		isa.Instruction{Op: isa.RET},
		isa.Instruction{Op: isa.POP, Rd: 3},
		isa.Instruction{Op: isa.RET},
		isa.Instruction{Op: isa.SYSCALL},
		isa.Instruction{Op: isa.RET},
		isa.Instruction{Op: isa.LOAD, Rd: 2, Rs1: 1},
		isa.Instruction{Op: isa.RET},
		isa.Instruction{Op: isa.PUSH, Rs1: 1},
		isa.Instruction{Op: isa.RET},
	)
	sums := SummarizeGadgets(code, base, scanLen)
	find := func(addr uint64, length int) GadgetSummary {
		t.Helper()
		for _, g := range sums {
			if g.Addr == addr && g.Len == length {
				return g
			}
		}
		t.Fatalf("no summary at %#x len %d", addr, length)
		return GadgetSummary{}
	}

	movi := find(at(0), 2)
	if movi.Writes[1] != (AbsVal{Kind: ValConst, C: 7}) || movi.PopWords != 0 || !movi.ChainSafe {
		t.Errorf("movi;ret summary: %+v", movi)
	}
	pop := find(at(2), 2)
	if pop.Writes[3] != (AbsVal{Kind: ValStackWord, K: 0}) || pop.PopWords != 1 || !pop.ChainSafe {
		t.Errorf("pop;ret summary: %+v", pop)
	}
	sys := find(at(4), 2)
	if !sys.Syscall || sys.PopWords != 0 || !sys.ChainSafe {
		t.Errorf("syscall;ret summary: %+v", sys)
	}
	load := find(at(6), 2)
	if !load.ReadsMem || load.ChainSafe || load.Writes[2].Kind != ValUnknown {
		t.Errorf("load;ret summary: %+v", load)
	}
	push := find(at(8), 2)
	if push.ChainSafe || push.PopWords != 0 {
		t.Errorf("push;ret summary: %+v", push)
	}
}

// TestSummariesMatchDynamicScan: over every mibench host image the
// abstract enumerator must report exactly the gadget census the dynamic
// scanner finds — same addresses, same lengths, same order.
func TestSummariesMatchDynamicScan(t *testing.T) {
	for _, img := range hostImages(t) {
		scanned := gadget.Scan(img, scanLen)
		sums := SummarizeGadgets(img.Code, img.Base, scanLen)
		if len(sums) != len(scanned) {
			t.Fatalf("%#x: %d summaries vs %d scanned gadgets", img.Base, len(sums), len(scanned))
		}
		for i := range sums {
			if sums[i].Addr != scanned[i].Addr || sums[i].Len != scanned[i].Len() {
				t.Fatalf("entry %d: summary (%#x,%d) vs scan (%#x,%d)",
					i, sums[i].Addr, sums[i].Len, scanned[i].Addr, scanned[i].Len())
			}
		}
		if len(sums) == 0 {
			t.Fatalf("%#x: no gadgets at all", img.Base)
		}
	}
}

// TestPlanMatchesCatalog: wherever the dynamic catalog can build a
// chain, the static planner must build the identical word sequence —
// they share the lowest-address minimal-gadget choice rule.
func TestPlanMatchesCatalog(t *testing.T) {
	for _, img := range hostImages(t) {
		cat := gadget.ScanAndCatalog(img, scanLen)
		sums := SummarizeGadgets(img.Code, img.Base, scanLen)

		var pairsDyn []gadget.RegValue
		var pairsStat []RegValue
		for r := uint8(0); r < isa.NumRegs; r++ {
			if _, ok := cat.PopReg(r); !ok {
				continue
			}
			v := 0x1000 + uint64(r)
			pairsDyn = append(pairsDyn, gadget.RegValue{Reg: r, Value: v})
			pairsStat = append(pairsStat, RegValue{Reg: r, Value: v})

			dynOne, err := cat.BuildSetRegs(gadget.RegValue{Reg: r, Value: v})
			if err != nil {
				t.Fatal(err)
			}
			statOne, err := PlanSetRegs(sums, RegValue{Reg: r, Value: v})
			if err != nil {
				t.Fatalf("r%d: dynamic catalog has a pop gadget but static planner failed: %v", r, err)
			}
			if !wordsEqual(statOne.Words(), dynOne.Words()) {
				t.Errorf("r%d: static chain %#x vs dynamic %#x", r, statOne.Words(), dynOne.Words())
			}
		}
		if len(pairsDyn) == 0 {
			t.Fatalf("%#x: catalog found no pop gadgets at all", img.Base)
		}

		if _, ok := cat.Syscall(); ok {
			dyn, err := cat.BuildSyscall(pairsDyn...)
			if err != nil {
				t.Fatal(err)
			}
			stat, err := PlanSyscall(sums, pairsStat...)
			if err != nil {
				t.Fatalf("static syscall plan failed where catalog succeeded: %v", err)
			}
			if !wordsEqual(stat.Words(), dyn.Words()) {
				t.Errorf("syscall chain: static %#x vs dynamic %#x", stat.Words(), dyn.Words())
			}
		}
	}
}

// TestPlanFallbackBeyondCatalog: the static planner understands gadget
// shapes the dynamic catalog cannot classify — a pop separated from its
// ret still plans, so the static capability set is a superset.
func TestPlanFallbackBeyondCatalog(t *testing.T) {
	code := enc(t,
		isa.Instruction{Op: isa.POP, Rd: 5},
		isa.Instruction{Op: isa.NOP},
		isa.Instruction{Op: isa.RET},
	)
	cat := gadget.ScanAndCatalog(&isa.Image{Base: base, Code: code}, scanLen)
	if _, ok := cat.PopReg(5); ok {
		t.Fatal("dynamic catalog unexpectedly classified the split gadget")
	}
	sums := SummarizeGadgets(code, base, scanLen)
	plan, err := PlanSetRegs(sums, RegValue{Reg: 5, Value: 0xbeef})
	if err != nil {
		t.Fatalf("static planner missed the split pop gadget: %v", err)
	}
	want := []uint64{at(0), 0xbeef}
	if !wordsEqual(plan.Words(), want) {
		t.Fatalf("plan words = %#x, want %#x", plan.Words(), want)
	}
}

func wordsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hostImages links every mibench workload's ROP host module — the
// binaries the paper's attack scans for gadgets.
func hostImages(t *testing.T) []*isa.Image {
	t.Helper()
	var imgs []*isa.Image
	for _, im := range scanSetHosts(t) {
		imgs = append(imgs, im.Img)
	}
	return imgs
}
