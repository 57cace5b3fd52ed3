package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Block is one basic block of recovered code: a maximal straight-line
// run of valid instruction slots entered only at its first instruction.
// Instruction i of the block sits at Start + i*isa.InstrSize. Instrs is
// a capped window of the image's shared decode: append copies, but
// writing an element in place would change every CFG of that image.
type Block struct {
	Start  uint64
	Instrs []isa.Instruction
	// Succs holds the statically resolved successor block starts
	// (fall-through, direct branch targets, CALL target plus its return
	// site). Indirect control flow contributes no entries.
	Succs []uint64
	// Indirect marks a block terminated by CALLR, JMPR or RET — control
	// flow whose target the static analysis cannot resolve.
	Indirect bool
	// Reachable marks blocks reachable from a root over Succs edges;
	// the linear sweep also keeps unreachable-but-valid regions (dead
	// code, ROP gadget fodder, data that happens to decode).
	Reachable bool
}

// End returns the address one past the block's last instruction.
func (b *Block) End() uint64 { return b.Start + uint64(len(b.Instrs))*isa.InstrSize }

// Terminal returns the block's last instruction.
func (b *Block) Terminal() isa.Instruction { return b.Instrs[len(b.Instrs)-1] }

// decoded is one code image decoded once: every whole aligned slot's
// instruction and whether it decodes canonically, plus the ragged tail
// length. CFG recovery, the gadget census and the taint pass all read
// this one form; a corpus scan builds it once per image and shares it
// read-only across the image's root shards.
type decoded struct {
	base      uint64
	ins       []isa.Instruction // slot i sits at base + i*isa.InstrSize
	valid     []bool            // slot i decodes canonically
	truncated int
}

func decodeImage(code []byte, base uint64) *decoded {
	n := len(code) / isa.InstrSize
	d := &decoded{
		base:      base,
		ins:       make([]isa.Instruction, n),
		valid:     make([]bool, n),
		truncated: len(code) - n*isa.InstrSize,
	}
	for i := range d.ins {
		if in, err := isa.Decode(code[i*isa.InstrSize:]); err == nil {
			d.ins[i], d.valid[i] = in, true
		}
	}
	return d
}

// slotIndex maps pc to its slot when pc is an aligned slot inside the
// image.
func (d *decoded) slotIndex(pc uint64) (int, bool) {
	if pc < d.base || (pc-d.base)%isa.InstrSize != 0 {
		return 0, false
	}
	i := int((pc - d.base) / isa.InstrSize)
	if i >= len(d.ins) {
		return 0, false
	}
	return i, true
}

// endsBlock reports whether op terminates a basic block.
func endsBlock(op isa.Op) bool { return op.IsBranch() || op == isa.HALT }

// CFG is the recovered control-flow graph of one code image.
type CFG struct {
	Base   uint64
	Blocks map[uint64]*Block
	// Order lists block starts in ascending address order.
	Order []uint64
	// Roots are the analysis entry points (image entry, symbols).
	Roots []uint64
	// IndirectSites lists the PCs of CALLR/JMPR/RET instructions —
	// targets the recovery marks unresolved rather than following.
	IndirectSites []uint64
	// InvalidTargets lists direct branch targets that are not valid
	// code: out of the image, mid-instruction (unaligned), or aimed at
	// a slot that does not decode canonically.
	InvalidTargets []uint64
	// Truncated is the number of ragged bytes after the last whole
	// instruction slot (a truncated final instruction).
	Truncated int

	code *decoded
}

// NumInstrs returns the total instruction count across all blocks.
func (g *CFG) NumInstrs() int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// BlockAt returns the block containing pc, if any.
func (g *CFG) BlockAt(pc uint64) (*Block, bool) {
	if (pc-g.Base)%isa.InstrSize != 0 {
		return nil, false
	}
	i := sort.Search(len(g.Order), func(i int) bool { return g.Order[i] > pc })
	if i == 0 {
		return nil, false
	}
	b := g.Blocks[g.Order[i-1]]
	if pc >= b.Start && pc < b.End() {
		return b, true
	}
	return nil, false
}

// InstrAt returns the instruction at pc when pc is an aligned, valid
// slot inside the image.
func (g *CFG) InstrAt(pc uint64) (isa.Instruction, bool) {
	i, ok := g.code.slotIndex(pc)
	if !ok || !g.code.valid[i] {
		return isa.Instruction{}, false
	}
	return g.code.ins[i], true
}

// validPC reports whether pc is an aligned slot that decodes canonically.
func (g *CFG) validPC(pc uint64) bool {
	i, ok := g.code.slotIndex(pc)
	return ok && g.code.valid[i]
}

// RecoverCFG rebuilds the control-flow graph of a code image loaded at
// base. Recovery combines a linear sweep (every aligned slot that
// decodes canonically is candidate code, so unreachable gadget material
// is kept) with recursive descent over direct control flow (JMP,
// conditional branches, CALL targets and their return sites) to compute
// reachability from the roots. Indirect flow (CALLR/JMPR/RET) is
// terminal: the sites are recorded as unresolved rather than guessed.
// CALL's successors are the callee entry and the return site — the
// standard static approximation that the callee returns; register state
// flowing across the return-site edge is the caller's pre-call state.
//
// Roots outside the image, unaligned, or aimed at invalid slots are
// ignored (and recorded in InvalidTargets), as are such direct branch
// targets — a branch into the middle of an instruction reads a shifted,
// non-canonical byte frame, which the fixed-width ISA rejects by
// construction.
func RecoverCFG(code []byte, base uint64, roots ...uint64) *CFG {
	return decodeImage(code, base).recoverCFG(roots...)
}

// recoverCFG is RecoverCFG over an already decoded image. It only reads
// d, so root shards of one image may call it concurrently.
func (d *decoded) recoverCFG(roots ...uint64) *CFG {
	g := &CFG{Base: d.base, Truncated: d.truncated, code: d}
	ins, valid := d.ins, d.valid
	n := len(ins)

	// Pass 1: leaders. A slot starts a block if it is a root, a direct
	// branch target, the slot after any control transfer, or the first
	// valid slot after invalid space (linear-sweep region starts). Only
	// valid slots are ever marked.
	leader := make([]bool, n)
	invalid := map[uint64]bool{}
	markTarget := func(pc uint64) {
		if i, ok := d.slotIndex(pc); ok && valid[i] {
			leader[i] = true
			return
		}
		if !invalid[pc] {
			invalid[pc] = true
			g.InvalidTargets = append(g.InvalidTargets, pc)
		}
	}
	for _, r := range roots {
		if g.validPC(r) {
			g.Roots = append(g.Roots, r)
		}
		markTarget(r)
	}
	for i := 0; i < n; i++ {
		if !valid[i] {
			continue
		}
		if i == 0 || !valid[i-1] {
			leader[i] = true // region start under the linear sweep
		}
		in := ins[i]
		op := in.Op
		switch {
		case op == isa.JMP || op == isa.CALL || op.IsCondBranch():
			markTarget(uint64(in.Imm))
		case op == isa.CALLR || op == isa.JMPR || op == isa.RET:
			g.IndirectSites = append(g.IndirectSites, d.base+uint64(i)*isa.InstrSize)
		}
		if endsBlock(op) && i+1 < n && valid[i+1] {
			leader[i+1] = true
		}
	}

	// Pass 2: block formation over each maximal valid run. Blocks live
	// in one slab and are visited in slot order, so Order comes out
	// ascending.
	nb := 0
	for _, l := range leader {
		if l {
			nb++
		}
	}
	blocks := make([]Block, 0, nb)
	g.Blocks = make(map[uint64]*Block, nb)
	g.Order = make([]uint64, 0, nb)
	for i := 0; i < n; i++ {
		if !leader[i] {
			continue
		}
		j := i
		for !endsBlock(ins[j].Op) && j+1 < n && valid[j+1] && !leader[j+1] {
			j++
		}
		start := d.base + uint64(i)*isa.InstrSize
		blocks = append(blocks, Block{Start: start, Instrs: ins[i : j+1 : j+1]})
		g.Blocks[start] = &blocks[len(blocks)-1]
		g.Order = append(g.Order, start)
	}

	// Pass 3: successor edges, at most two per block, carved from one
	// buffer as capped windows.
	succs := make([]uint64, 0, 2*nb)
	for k := range blocks {
		b := &blocks[k]
		term := b.Terminal()
		fall := b.End()
		lo := len(succs)
		addSucc := func(pc uint64) {
			if _, ok := g.Blocks[pc]; ok {
				succs = append(succs, pc)
			}
		}
		switch op := term.Op; {
		case op == isa.JMP:
			addSucc(uint64(term.Imm))
		case op.IsCondBranch():
			addSucc(uint64(term.Imm))
			addSucc(fall)
		case op == isa.CALL:
			addSucc(uint64(term.Imm))
			addSucc(fall)
		case op == isa.CALLR || op == isa.JMPR || op == isa.RET:
			b.Indirect = true
		case op == isa.HALT:
			// no successors
		default:
			addSucc(fall) // block split by a leader mid-run
		}
		if hi := len(succs); hi > lo {
			b.Succs = succs[lo:hi:hi]
		}
	}

	// Pass 4: reachability from the roots.
	work := append([]uint64(nil), g.Roots...)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		b, ok := g.BlockAt(pc)
		if !ok || b.Reachable {
			continue
		}
		b.Reachable = true
		work = append(work, b.Succs...)
	}
	sort.Slice(g.InvalidTargets, func(a, b int) bool { return g.InvalidTargets[a] < g.InvalidTargets[b] })
	return g
}

// BlockDepths returns the breadth-first depth, in blocks, of every
// block start from the nearest root, or -1 for blocks no root reaches
// over direct edges. The exploitability ranking uses it as its
// reachability axis: a gadget two calls from an entry point is easier
// to steer execution into than one buried behind indirect flow.
func (g *CFG) BlockDepths() map[uint64]int {
	depth := make(map[uint64]int, len(g.Blocks))
	for _, start := range g.Order {
		depth[start] = -1
	}
	var frontier []uint64
	for _, r := range g.Roots {
		if b, ok := g.BlockAt(r); ok && depth[b.Start] == -1 {
			depth[b.Start] = 0
			frontier = append(frontier, b.Start)
		}
	}
	for d := 1; len(frontier) > 0; d++ {
		var next []uint64
		for _, pc := range frontier {
			for _, s := range g.Blocks[pc].Succs {
				if depth[s] == -1 {
					depth[s] = d
					next = append(next, s)
				}
			}
		}
		frontier = next
	}
	return depth
}

// succPCs returns the instruction-level successors of the instruction
// at pc: the next instruction inside the block, or the block's Succs at
// its terminal. Used by witness-path search.
func (g *CFG) succPCs(pc uint64) []uint64 {
	b, ok := g.BlockAt(pc)
	if !ok {
		return nil
	}
	if next := pc + isa.InstrSize; next < b.End() {
		return []uint64{next}
	}
	return b.Succs
}

// path runs a breadth-first search from one PC to another over
// instruction-level edges, bounded by limit steps, and returns the PCs
// visited along the shortest route (inclusive of both ends).
func (g *CFG) path(from, to uint64, limit int) []uint64 {
	if from == to {
		return []uint64{from}
	}
	prev := map[uint64]uint64{from: from}
	frontier := []uint64{from}
	for depth := 0; depth < limit && len(frontier) > 0; depth++ {
		var next []uint64
		for _, pc := range frontier {
			for _, s := range g.succPCs(pc) {
				if _, seen := prev[s]; seen {
					continue
				}
				prev[s] = pc
				if s == to {
					var rev []uint64
					for at := to; ; at = prev[at] {
						rev = append(rev, at)
						if at == from {
							break
						}
					}
					out := make([]uint64, len(rev))
					for i, pc := range rev {
						out[len(rev)-1-i] = pc
					}
					return out
				}
				next = append(next, s)
			}
		}
		frontier = next
	}
	return nil
}

// Dump renders the CFG for debugging: one line per block with its
// address range, reachability and successors.
func (g *CFG) Dump() string {
	var b strings.Builder
	for _, start := range g.Order {
		blk := g.Blocks[start]
		mark := " "
		if blk.Reachable {
			mark = "*"
		}
		tail := ""
		if blk.Indirect {
			tail = " [indirect]"
		}
		fmt.Fprintf(&b, "%s %#x..%#x (%d instrs) -> %x%s\n",
			mark, blk.Start, blk.End(), len(blk.Instrs), blk.Succs, tail)
	}
	return b.String()
}
