package cpu

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// TestStoreToNeverWrittenExecPage: a page made executable but never
// written is fetched as a view of mem's shared zero page, whose bytes
// decode as NOPs. A syscall then widens it RX→RWX and the guest stores an
// instruction into it: the first store swaps in a private frame and must
// bump the page generation, so the predecode slots and blocks cached
// over the zero-page view go stale and the second call runs the patch.
func TestStoreToNeverWrittenExecPage(t *testing.T) {
	const blank, tail = 0x100000, 0x100000 + mem.PageSize
	var patch [isa.InstrSize]byte
	if err := (isa.Instruction{Op: isa.MOVI, Rd: 3, Imm: 42}).Encode(patch[:]); err != nil {
		t.Fatal(err)
	}
	src := fmt.Sprintf(`
	.entry main
	main:
		movi r9, %d
		callr r9           ; a page of zero-page NOPs, then the RET at tail
		movi r0, 7
		syscall            ; widen the blank page to RWX
		movi r6, %d
		store [r9+0], r6
		movi r6, %d
		store [r9+8], r6
		callr r9
		halt
	`, blank, int64(binary.LittleEndian.Uint64(patch[:8])), int64(binary.LittleEndian.Uint64(patch[8:])))
	var ret [isa.InstrSize]byte
	if err := (isa.Instruction{Op: isa.RET}).Encode(ret[:]); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name                  string
		noBlocks, noPredecode bool
	}{
		{"blocks", false, false},
		{"noblocks", true, false},
		{"interp", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NoBlocks, cfg.NoPredecode = tc.noBlocks, tc.noPredecode
			c, _ := load(t, src, cfg)
			if err := c.Mem.Protect(blank, mem.PageSize, mem.PermRX); err != nil {
				t.Fatal(err)
			}
			if err := c.Mem.LoadRaw(tail, ret[:]); err != nil {
				t.Fatal(err)
			}
			if err := c.Mem.Protect(tail, mem.PageSize, mem.PermRX); err != nil {
				t.Fatal(err)
			}
			var genBefore uint64
			c.OnSyscall = func(c *CPU) error {
				genBefore = c.Mem.PageGen(blank)
				return c.Mem.Protect(blank, mem.PageSize, mem.PermRWX)
			}
			mustRun(t, c, 10_000)
			if c.Regs[3] != 42 {
				t.Fatalf("r3 = %d, want 42 (stale zero-page decode executed)", c.Regs[3])
			}
			if g := c.Mem.PageGen(blank); g < genBefore+3 {
				t.Errorf("page gen %d -> %d: Protect and two stores should each bump it", genBefore, g)
			}
			// Each call runs a page of instructions plus the RET; main
			// retires ten of its own.
			if want := uint64(2*(mem.PageSize/isa.InstrSize+1) + 10); c.Instret() != want {
				t.Errorf("retired %d instructions, want %d", c.Instret(), want)
			}
		})
	}
}
