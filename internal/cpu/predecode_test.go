package cpu

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// loadRWX is load() with the code page left writable (RWX), the mapping a
// self-modifying or injected-code program needs.
func loadRWX(t *testing.T, src string, cfg Config) (*CPU, *isa.Image) {
	t.Helper()
	mod, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	img, err := mod.Link(0x10000)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New(4 << 20)
	if err := m.LoadRaw(img.Base, img.Code); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(img.Base, uint64(len(img.Code)), mem.PermRWX); err != nil {
		t.Fatal(err)
	}
	top := m.Size() - mem.PageSize
	if err := m.Protect(top-(64<<10), 64<<10, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c := New(m, cfg)
	c.PC = img.Entry
	c.Regs[isa.RegSP] = top
	return c, img
}

// TestPredecodeSelfModifyingCode runs a program on an RWX page that
// patches the immediate of an instruction it already executed (and hence
// predecoded), then re-executes it. The store's generation bump must
// invalidate the cached decode so the second pass sees the new bytes.
func TestPredecodeSelfModifyingCode(t *testing.T) {
	c, img := loadRWX(t, `
		movi r3, 0
	target:
		movi r1, 1           ; imm slot patched to 42 by the store below
		cmpi r3, 1
		je done
		movi r3, 1
		store [r7], r2       ; r7 = &target.imm, r2 = 42 (preset)
		jmp target
	done:
		halt
	`, DefaultConfig())
	// "target" is the second instruction; its imm field starts 4 bytes in.
	c.Regs[7] = img.Base + 1*isa.InstrSize + 4
	c.Regs[2] = 42
	mustRun(t, c, 100000)
	if c.Regs[1] != 42 {
		t.Errorf("r1 = %d after self-modification, want 42 (stale predecode?)", c.Regs[1])
	}
}

// TestPredecodeStaleAfterProtect warms the predecode cache, then revokes
// exec permission on the code page. The next fetch must take the DEP
// fault rather than serving the cached decode.
func TestPredecodeStaleAfterProtect(t *testing.T) {
	c, img := load(t, `
		movi r1, 7
		halt
	`, DefaultConfig())
	mustRun(t, c, 1000)
	if err := c.Mem.Protect(img.Base, uint64(len(img.Code)), mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c.Resume()
	c.PC = img.Entry
	err := c.Step()
	var f *mem.Fault
	if !errors.As(err, &f) || f.Kind != mem.FaultExec {
		t.Fatalf("step after exec revoke: err = %v, want DEP fault", err)
	}
}

// TestPredecodeStaleAfterRemap warms the cache with one program, then maps
// a different image over the same base through the loader channel. The
// rerun must execute the new program.
func TestPredecodeStaleAfterRemap(t *testing.T) {
	c, img := load(t, `
		movi r1, 1
		halt
	`, DefaultConfig())
	mustRun(t, c, 1000)
	if c.Regs[1] != 1 {
		t.Fatalf("first image: r1 = %d, want 1", c.Regs[1])
	}

	mod, err := isa.Assemble(`
		movi r1, 2
		halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	img2, err := mod.Link(img.Base)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mem.LoadRaw(img2.Base, img2.Code); err != nil {
		t.Fatal(err)
	}
	c.Resume()
	c.PC = img2.Entry
	mustRun(t, c, 1000)
	if c.Regs[1] != 2 {
		t.Errorf("remapped image: r1 = %d, want 2 (stale predecode?)", c.Regs[1])
	}
}

// TestPredecodeTimingNeutral is the differential check that the predecode
// cache is invisible to the model: the same branchy, speculating program
// run with the cache on and off must produce identical architectural state
// and an identical PMU snapshot, cycle for cycle.
func TestPredecodeTimingNeutral(t *testing.T) {
	src := `
		subi sp, sp, 16      ; scratch frame
		movi r1, 0           ; i
		movi r2, 0           ; acc
	loop:
		store [sp], r1
		load r4, [sp]        ; in-flight value feeds the compare
		cmp r4, r2           ; -> unresolved branch, wrong-path episodes
		je hit
		addi r2, r2, 1
	hit:
		addi r1, r1, 1
		cmpi r1, 100
		jne loop
		halt
	`
	run := func(off bool) (*CPU, Snapshot) {
		c, _ := load(t, src, DefaultConfig())
		c.predecodeOff = off
		mustRun(t, c, 1_000_000)
		return c, c.Snapshot()
	}
	cOn, snapOn := run(false)
	cOff, snapOff := run(true)

	if snapOn != snapOff {
		t.Errorf("PMU snapshots diverge:\n  cached:   %+v\n  uncached: %+v", snapOn, snapOff)
	}
	if cOn.Regs != cOff.Regs || cOn.PC != cOff.PC || cOn.Cycle != cOff.Cycle {
		t.Errorf("architectural state diverges: regs %v vs %v, pc %#x vs %#x, cycle %d vs %d",
			cOn.Regs, cOff.Regs, cOn.PC, cOff.PC, cOn.Cycle, cOff.Cycle)
	}
	if snapOn.SpecInstructions == 0 || snapOn.SpecLoads == 0 {
		t.Fatalf("test program did not speculate (spec instrs %d, spec loads %d); differential check is vacuous",
			snapOn.SpecInstructions, snapOn.SpecLoads)
	}
}

// TestPredecodeStraddlingPCUncached drives execution onto a non-aligned PC
// whose instruction straddles a page boundary: the fill path must refuse
// to cache it and the uncached fetch must still fault correctly when the
// second page is not executable.
func TestPredecodeStraddlingPCUncached(t *testing.T) {
	m := mem.New(1 << 20)
	// Only the first page executable; a fetch starting InstrSize-1 bytes
	// before its end straddles into a mapped but non-exec page.
	if err := m.Protect(0, mem.PageSize, mem.PermRX); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect(mem.PageSize, mem.PageSize, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	c := New(m, DefaultConfig())
	c.PC = mem.PageSize - (isa.InstrSize - 1)
	err := c.Step()
	var f *mem.Fault
	if !errors.As(err, &f) || f.Kind != mem.FaultExec {
		t.Fatalf("straddling fetch: err = %v, want exec fault", err)
	}
}

// TestPredecodeSlotAliasing runs a loop whose two halves sit exactly
// icacheSize instructions apart, so every instruction of one half shares
// a direct-mapped predecode slot with its partner in the other and each
// iteration evicts and refills the same slots. Mid-run an RWX store
// rewrites the immediate of one aliased instruction. The bare
// interpreter, the single-step tier and the block tier must agree on
// architectural state and on the full PMU snapshot.
func TestPredecodeSlotAliasing(t *testing.T) {
	const halfA = `
		movi r1, 0
		movi r2, 0
		subi sp, sp, 16
	loop:
		addi r1, r1, 1       ; shares a slot with "patched"
		store [sp], r1
		load r4, [sp]        ; in-flight value feeds the compare
		cmpi r4, 40          ; -> unresolved branch, wrong-path episodes
		jne far
		store [r7], r6       ; iteration 40: rewrite patched's imm to r6
		jmp far
	`
	const halfB = `
	far:
		addi r2, r2, 3
		addi r3, r3, 1
		mov r5, r2
	patched:
		addi r2, r2, 5
		add r5, r5, r1
		cmpi r1, 80
		jne loop
		halt
	`
	const halfAInstrs = 10
	src := halfA + strings.Repeat("\t\tnop\n", icacheSize-halfAInstrs) + halfB

	type result struct {
		regs  [isa.NumRegs]uint64
		pc    uint64
		cycle uint64
		snap  Snapshot
	}
	run := func(cfg Config) result {
		c, img := loadRWX(t, src, cfg)
		loop, patched := img.Symbols["loop"], img.Symbols["patched"]
		if patched-loop != icacheSize*isa.InstrSize {
			t.Fatalf("loop %#x and patched %#x are %d bytes apart, want %d",
				loop, patched, patched-loop, icacheSize*isa.InstrSize)
		}
		c.Regs[7] = patched + 4 // the imm field
		c.Regs[6] = 1000
		mustRun(t, c, 1_000_000)
		return result{c.Regs, c.PC, c.Cycle, c.Snapshot()}
	}
	interpCfg, noblocksCfg := DefaultConfig(), DefaultConfig()
	interpCfg.NoPredecode = true
	noblocksCfg.NoBlocks = true
	interp, noblocks, blocks := run(interpCfg), run(noblocksCfg), run(DefaultConfig())

	// Iterations 1..39 add 3+5, iterations 40..80 add 3+1000.
	if want := uint64(80*3 + 39*5 + 41*1000); noblocks.regs[2] != want {
		t.Errorf("noblocks r2 = %d, want %d (stale decode of the rewritten instruction?)", noblocks.regs[2], want)
	}
	if noblocks.snap.SpecInstructions == 0 {
		t.Fatal("test program did not speculate; wrong-path refills are not covered")
	}
	for _, tier := range []struct {
		name string
		r    result
	}{{"interp", interp}, {"blocks", blocks}} {
		if tier.r.regs != noblocks.regs || tier.r.pc != noblocks.pc || tier.r.cycle != noblocks.cycle {
			t.Errorf("%s vs noblocks: regs %v vs %v, pc %#x vs %#x, cycle %d vs %d", tier.name,
				tier.r.regs, noblocks.regs, tier.r.pc, noblocks.pc, tier.r.cycle, noblocks.cycle)
		}
		if tier.r.snap != noblocks.snap {
			t.Errorf("%s vs noblocks PMU snapshots diverge:\n  %s: %+v\n  noblocks: %+v",
				tier.name, tier.name, tier.r.snap, noblocks.snap)
		}
	}
}
