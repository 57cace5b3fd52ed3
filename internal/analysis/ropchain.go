package analysis

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/isa"
)

// ValKind classifies what a gadget writes into a register.
type ValKind uint8

const (
	// ValNone: the gadget does not write the register.
	ValNone ValKind = iota
	// ValConst: the register receives a constant (MOVI).
	ValConst
	// ValStackWord: the register receives chain word K (0-based,
	// counting data words after the gadget's own address word).
	ValStackWord
	// ValUnknown: the register is written with a value the abstract
	// execution cannot describe (ALU result, loaded data, RDTSC).
	ValUnknown
)

// AbsVal is the abstract value a gadget leaves in a register.
type AbsVal struct {
	Kind ValKind
	K    int   // stack word index, for ValStackWord
	C    int64 // constant, for ValConst
}

func (v AbsVal) String() string {
	switch v.Kind {
	case ValConst:
		return fmt.Sprintf("const %#x", uint64(v.C))
	case ValStackWord:
		return fmt.Sprintf("stack[%d]", v.K)
	case ValUnknown:
		return "unknown"
	}
	return "-"
}

// GadgetSummary is the symbolic effect of one RET-terminated sequence:
// which registers it sets from which chain words, how many stack words
// it consumes, and whether it has side effects that make it unsafe to
// splice into a chain blindly. This is the static replacement for
// executing candidate gadgets to see what they do.
type GadgetSummary struct {
	Addr   uint64
	Len    int // instructions including the trailing RET
	Writes [isa.NumRegs]AbsVal
	// PopWords is the number of chain data words the gadget consumes
	// (its POPs); the RET then consumes the next gadget-address word.
	PopWords int
	// ReadsMem/WritesMem: the gadget touches memory at an address the
	// abstraction cannot bound (loads/stores through registers).
	ReadsMem  bool
	WritesMem bool
	// Syscall: the gadget raises SYSCALL before returning.
	Syscall bool
	// ChainSafe: no unbounded memory access, no PUSH rewinding into
	// chain words the RET will consume — splicing it cannot fault or
	// corrupt the chain, so a planner may use it freely.
	ChainSafe bool
}

// SummarizeGadgets enumerates every aligned RET-terminated suffix of at
// most maxLen instructions (the same census rule as gadget.Scan: no
// control flow before the RET) and abstractly executes each one.
// Results are ordered by address, shortest first at equal addresses —
// byte-compatible with the dynamic scanner's ordering so the two can be
// cross-checked entry for entry.
func SummarizeGadgets(code []byte, base uint64, maxLen int) []GadgetSummary {
	return decodeImage(code, base).gadgets(maxLen)
}

// gadgets is SummarizeGadgets over an already decoded image. Each
// gadget body is a window of the shared instruction array.
func (d *decoded) gadgets(maxLen int) []GadgetSummary {
	if maxLen < 1 {
		maxLen = 1
	}
	var out []GadgetSummary
	for i, in := range d.ins {
		if !d.valid[i] || in.Op != isa.RET {
			continue
		}
		// The longest suffix starts at lo: every slot before the RET
		// must be valid straight-line code.
		lo := i
		for lo > 0 && i-lo+1 < maxLen && d.valid[lo-1] && !endsBlock(d.ins[lo-1].Op) {
			lo--
		}
		for start := lo; start <= i; start++ {
			out = append(out, summarize(d.base+uint64(start)*isa.InstrSize, d.ins[start:i+1]))
		}
	}
	// Suffix groups of a later RET can start before an earlier RET's
	// address when regions overlap, so restore the documented order.
	slices.SortStableFunc(out, func(a, b GadgetSummary) int {
		if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
			return c
		}
		return cmp.Compare(a.Len, b.Len)
	})
	return out
}

// summarize abstractly executes one gadget body. The abstract stack
// pointer starts at chain word 0 (the word just above the gadget's own
// address word, which the dispatching RET already consumed).
func summarize(addr uint64, instrs []isa.Instruction) GadgetSummary {
	g := GadgetSummary{Addr: addr, Len: len(instrs), ChainSafe: true}
	spWord := 0
	for _, in := range instrs[:len(instrs)-1] {
		switch op := in.Op; {
		case op == isa.POP:
			g.Writes[in.Rd] = AbsVal{Kind: ValStackWord, K: spWord}
			spWord++
		case op == isa.PUSH:
			// Pushing rewinds the abstract SP under the chain: the RET
			// would then consume a word the gadget wrote, not the next
			// chain entry. Usable only with bespoke layouts.
			spWord--
			g.ChainSafe = false
		case op == isa.MOVI:
			g.Writes[in.Rd] = AbsVal{Kind: ValConst, C: in.Imm}
		case op == isa.MOV || (op >= isa.ADD && op <= isa.SAR) || (op >= isa.ADDI && op <= isa.SHRI) || op == isa.RDTSC:
			g.Writes[in.Rd] = AbsVal{Kind: ValUnknown}
		case op == isa.LOAD || op == isa.LOADB:
			g.Writes[in.Rd] = AbsVal{Kind: ValUnknown}
			g.ReadsMem = true
			g.ChainSafe = false // unbounded address may fault mid-chain
		case op == isa.STORE || op == isa.STOREB:
			g.WritesMem = true
			g.ChainSafe = false
		case op == isa.SYSCALL:
			g.Syscall = true
		}
	}
	g.PopWords = spWord
	if spWord < 0 {
		g.PopWords = 0
	}
	return g
}

// ChainStep is one planned chain element: a gadget address followed by
// the data words its POPs consume.
type ChainStep struct {
	Gadget GadgetSummary
	Data   []uint64
}

// ChainPlan is a statically planned ROP chain: the stack words to write
// over the saved return address, with provenance.
type ChainPlan struct {
	Steps []ChainStep
}

// Words flattens the plan into stack words in push order.
func (p *ChainPlan) Words() []uint64 {
	var out []uint64
	for _, s := range p.Steps {
		out = append(out, s.Gadget.Addr)
		out = append(out, s.Data...)
	}
	return out
}

// RegValue mirrors gadget.RegValue without importing it (analysis is a
// lower layer than the dynamic gadget package).
type RegValue struct {
	Reg   uint8
	Value uint64
}

// PlanSetRegs plans a chain loading each (register, value) pair using
// only chain-safe single-pop gadgets that write nothing but the target
// register — the static equivalent of gadget.Catalog.BuildSetRegs. The
// lowest-addressed qualifying gadget wins (determinism).
func PlanSetRegs(sums []GadgetSummary, pairs ...RegValue) (*ChainPlan, error) {
	plan := &ChainPlan{}
	for _, pr := range pairs {
		g, ok := findPopGadget(sums, pr.Reg)
		if !ok {
			return nil, fmt.Errorf("analysis: no chain-safe 'pop r%d; ret' gadget", pr.Reg)
		}
		plan.Steps = append(plan.Steps, ChainStep{Gadget: g, Data: []uint64{pr.Value}})
	}
	return plan, nil
}

// PlanSyscall plans set-registers-then-syscall — the static counterpart
// of gadget.Catalog.BuildSyscall (the paper's execve chain shape).
func PlanSyscall(sums []GadgetSummary, pairs ...RegValue) (*ChainPlan, error) {
	plan, err := PlanSetRegs(sums, pairs...)
	if err != nil {
		return nil, err
	}
	g, ok := findSyscallGadget(sums)
	if !ok {
		return nil, fmt.Errorf("analysis: no chain-safe 'syscall; ret' gadget")
	}
	plan.Steps = append(plan.Steps, ChainStep{Gadget: g})
	return plan, nil
}

// findPopGadget prefers the minimal two-instruction "pop rN; ret" form
// at the lowest address — the same choice rule as gadget.NewCatalog, so
// static and dynamic planners produce identical chains on the same
// image — and falls back to any chain-safe summary whose sole effect is
// loading chain word 0 into the target register (e.g. "pop rN; nop;
// ret", which the dynamic catalog cannot classify).
func findPopGadget(sums []GadgetSummary, reg uint8) (GadgetSummary, bool) {
	var fallback GadgetSummary
	haveFallback := false
	for _, g := range sums {
		if !g.ChainSafe || g.Syscall || g.PopWords != 1 {
			continue
		}
		if g.Writes[reg].Kind != ValStackWord || g.Writes[reg].K != 0 {
			continue
		}
		clean := true
		for r := 0; r < isa.NumRegs; r++ {
			if uint8(r) != reg && g.Writes[r].Kind != ValNone {
				clean = false
				break
			}
		}
		if !clean {
			continue
		}
		if g.Len == 2 {
			return g, true
		}
		if !haveFallback {
			fallback, haveFallback = g, true
		}
	}
	return fallback, haveFallback
}

// findSyscallGadget mirrors findPopGadget's preference order for the
// "syscall; ret" capability.
func findSyscallGadget(sums []GadgetSummary) (GadgetSummary, bool) {
	var fallback GadgetSummary
	haveFallback := false
	for _, g := range sums {
		if !g.ChainSafe || !g.Syscall || g.PopWords != 0 {
			continue
		}
		clean := true
		for r := 0; r < isa.NumRegs; r++ {
			if g.Writes[r].Kind != ValNone {
				clean = false
				break
			}
		}
		if !clean {
			continue
		}
		if g.Len == 2 {
			return g, true
		}
		if !haveFallback {
			fallback, haveFallback = g, true
		}
	}
	return fallback, haveFallback
}
