package mem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// modelPages is the model memory's size in pages: enough for page-edge
// accesses on both sides of interior boundaries plus the end of the
// address space, small enough that every page gets hit.
const modelPages = 4

// shadow is the flat reference the sparse memory is checked against: a
// dense byte array with the permission and generation rules written out
// directly, without frames.
type shadow struct {
	data  []byte
	perms []Perm
	gens  []uint64
}

func newShadow() *shadow {
	return &shadow{
		data:  make([]byte, modelPages*PageSize),
		perms: make([]Perm, modelPages),
		gens:  make([]uint64, modelPages),
	}
}

func (s *shadow) size() uint64 { return uint64(len(s.data)) }

// inRange reports whether [addr, addr+n) lies inside memory.
func (s *shadow) inRange(addr, n uint64) bool {
	return addr+n >= addr && addr+n <= s.size()
}

// check is the fault rule: the range must be in bounds; an empty range
// needs only addr in bounds; otherwise the first page, in address order,
// that is unmapped or lacks need decides the fault.
func (s *shadow) check(addr, n uint64, need Perm, kind FaultKind) error {
	if !s.inRange(addr, n) || (n == 0 && addr >= s.size()) {
		return &Fault{Kind: FaultUnmapped, Addr: addr}
	}
	for a := addr; n > 0 && a < addr+n; a = (a/PageSize + 1) * PageSize {
		switch p := s.perms[a/PageSize]; {
		case p == 0:
			return &Fault{Kind: FaultUnmapped, Addr: addr}
		case p&need == 0:
			return &Fault{Kind: kind, Addr: addr}
		}
	}
	return nil
}

func (s *shadow) bump(addr, n uint64) {
	for pg := addr / PageSize; pg <= (addr+n-1)/PageSize; pg++ {
		s.gens[pg]++
	}
}

func (s *shadow) store(addr uint64, b []byte) {
	copy(s.data[addr:], b)
	s.bump(addr, uint64(len(b)))
}

// modelInput decodes a fuzz input into operands, yielding zeros once the
// input is exhausted.
type modelInput struct{ b []byte }

func (in *modelInput) byte() byte {
	if len(in.b) == 0 {
		return 0
	}
	v := in.b[0]
	in.b = in.b[1:]
	return v
}

// edgeOffsets are the in-page offsets the address chooser favours: both
// sides of a page boundary for every access width.
var edgeOffsets = []uint64{0, 1, 7, 8, PageSize - 16, PageSize - 9, PageSize - 8, PageSize - 7, PageSize - 1}

// addr picks an address biased toward page edges; page index modelPages
// (one past the end) and a far address exercise the bounds rules.
func (in *modelInput) addr() uint64 {
	pg := uint64(in.byte() % (modelPages + 1))
	sel := in.byte()
	switch {
	case sel == 0xFF:
		return ^uint64(0) - uint64(in.byte()%16) // wraps on any width
	case sel < 0xA0:
		return pg*PageSize + edgeOffsets[int(sel)%len(edgeOffsets)]
	default:
		return pg*PageSize + uint64(binary.LittleEndian.Uint16([]byte{in.byte(), in.byte()}))%PageSize
	}
}

// length picks a byte count biased toward 0, word sizes and whole pages.
func (in *modelInput) length() uint64 {
	lens := []uint64{0, 1, 7, 8, 9, 16, 17, PageSize - 1, PageSize, PageSize + 1, 2 * PageSize}
	return lens[int(in.byte())%len(lens)]
}

// data returns n bytes that are all zero half the time, so zero-filled
// loads onto never-written pages are common.
func (in *modelInput) data(n uint64) []byte {
	out := make([]byte, n)
	if in.byte()&1 == 0 {
		return out
	}
	seed := in.byte()
	for i := range out {
		out[i] = seed + byte(i)*31
	}
	return out
}

func (in *modelInput) perm() Perm { return Perm(in.byte() % 8) }

func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	var fg, fw *Fault
	return errors.As(got, &fg) && errors.As(want, &fw) && *fg == *fw
}

// runModel applies the operation sequence encoded in input to a fresh
// sparse memory and to the flat shadow, failing at the first operation
// whose error, result bytes, generations or observed stores differ.
func runModel(t *testing.T, input []byte) {
	m, s := New(modelPages*PageSize), newShadow()
	var observed []string
	m.OnWrite = func(addr uint64, n int) { observed = append(observed, fmt.Sprintf("%#x+%d", addr, n)) }
	in := &modelInput{b: input}
	for step := 0; len(in.b) > 0; step++ {
		observed = observed[:0]
		var wantObserved []string
		observe := func(addr uint64, n int) {
			wantObserved = append(wantObserved, fmt.Sprintf("%#x+%d", addr, n))
		}
		var (
			op             string
			got, want      []byte
			gotErr, wanErr error
		)
		switch code := in.byte() % 11; code {
		case 0:
			addr, n, p := in.addr(), in.length(), in.perm()
			op = fmt.Sprintf("Protect(%#x, %d, %v)", addr, n, p)
			gotErr = m.Protect(addr, n, p)
			if n > 0 {
				if !s.inRange(addr, n) {
					wanErr = &Fault{Kind: FaultUnmapped, Addr: addr}
				} else {
					for pg := addr / PageSize; pg <= (addr+n-1)/PageSize; pg++ {
						s.perms[pg] = p
					}
					s.bump(addr, n)
				}
			}
		case 1:
			addr := in.addr()
			b := in.data(in.length())
			op = fmt.Sprintf("LoadRaw(%#x, %d bytes)", addr, len(b))
			gotErr = m.LoadRaw(addr, b)
			if len(b) > 0 {
				if !s.inRange(addr, uint64(len(b))) {
					wanErr = &Fault{Kind: FaultUnmapped, Addr: addr}
				} else {
					s.store(addr, b)
				}
			}
		case 2:
			addr, v := in.addr(), in.data(1)[0]
			op = fmt.Sprintf("Write8(%#x, %#x)", addr, v)
			gotErr = m.Write8(addr, v)
			if wanErr = s.check(addr, 1, PermWrite, FaultWrite); wanErr == nil {
				s.store(addr, []byte{v})
				observe(addr, 1)
			}
		case 3:
			addr, b := in.addr(), in.data(8)
			v := binary.LittleEndian.Uint64(b)
			op = fmt.Sprintf("Write64(%#x, %#x)", addr, v)
			gotErr = m.Write64(addr, v)
			if wanErr = s.check(addr, 8, PermWrite, FaultWrite); wanErr == nil {
				s.store(addr, b)
				observe(addr, 8)
			}
		case 4:
			addr := in.addr()
			b := in.data(in.length())
			op = fmt.Sprintf("WriteBytes(%#x, %d bytes)", addr, len(b))
			gotErr = m.WriteBytes(addr, b)
			if len(b) > 0 {
				if wanErr = s.check(addr, uint64(len(b)), PermWrite, FaultWrite); wanErr == nil {
					s.store(addr, b)
					observe(addr, len(b))
				}
			}
		case 5:
			addr := in.addr()
			op = fmt.Sprintf("Read8(%#x)", addr)
			v, err := m.Read8(addr)
			got, gotErr = []byte{v}, err
			if wanErr = s.check(addr, 1, PermRead, FaultRead); wanErr == nil {
				want = s.data[addr : addr+1]
			}
		case 6:
			addr := in.addr()
			op = fmt.Sprintf("Read64(%#x)", addr)
			v, err := m.Read64(addr)
			got, gotErr = binary.LittleEndian.AppendUint64(nil, v), err
			if wanErr = s.check(addr, 8, PermRead, FaultRead); wanErr == nil {
				want = s.data[addr : addr+8]
			}
		case 7:
			addr, n := in.addr(), in.length()
			op = fmt.Sprintf("ReadBytes(%#x, %d)", addr, n)
			got, gotErr = m.ReadBytes(addr, n)
			if wanErr = s.check(addr, n, PermRead, FaultRead); wanErr == nil {
				want = s.data[addr : addr+n]
			}
		case 8:
			addr, n := in.addr(), in.length()
			op = fmt.Sprintf("Fetch(%#x, %d)", addr, n)
			got, gotErr = m.Fetch(addr, n)
			if wanErr = s.check(addr, n, PermExec, FaultExec); wanErr == nil {
				want = s.data[addr : addr+n]
			}
		case 9:
			addr, n := in.addr(), in.length()
			op = fmt.Sprintf("FetchNoCopy(%#x, %d)", addr, n)
			b, gen, err := m.FetchNoCopy(addr, n)
			got, gotErr = b, err
			if !s.inRange(addr, n) || (addr+n-1)/PageSize != addr/PageSize {
				wanErr = &Fault{Kind: FaultUnmapped, Addr: addr}
			} else if wanErr = s.check(addr, 1, PermExec, FaultExec); wanErr == nil {
				want = s.data[addr : addr+n]
				if gen != s.gens[addr/PageSize] {
					t.Fatalf("step %d %s: gen %d, want %d", step, op, gen, s.gens[addr/PageSize])
				}
			}
		case 10:
			addr, n := in.addr(), in.length()
			op = fmt.Sprintf("PeekRaw(%#x, %d)", addr, n)
			got, gotErr = m.PeekRaw(addr, n)
			if !s.inRange(addr, n) {
				wanErr = &Fault{Kind: FaultUnmapped, Addr: addr}
			} else {
				want = s.data[addr : addr+n]
			}
		}

		if !sameErr(gotErr, wanErr) {
			t.Fatalf("step %d %s: err %v, want %v", step, op, gotErr, wanErr)
		}
		if wanErr == nil && want != nil && !bytes.Equal(got, want) {
			t.Fatalf("step %d %s: got % x, want % x", step, op, got, want)
		}
		if fmt.Sprint(observed) != fmt.Sprint(wantObserved) {
			t.Fatalf("step %d %s: OnWrite saw %v, want %v", step, op, observed, wantObserved)
		}
		for pg, g := range m.PageGens() {
			if g != s.gens[pg] || m.PageGen(uint64(pg)*PageSize) != g {
				t.Fatalf("step %d %s: page %d gen %d, want %d", step, op, pg, g, s.gens[pg])
			}
			if p := m.PermAt(uint64(pg) * PageSize); p != s.perms[pg] {
				t.Fatalf("step %d %s: page %d perm %v, want %v", step, op, pg, p, s.perms[pg])
			}
		}
		if zeroPage != [PageSize]byte{} {
			t.Fatalf("step %d %s: wrote through to the shared zero page", step, op)
		}
	}
	if all, err := m.PeekRaw(0, m.Size()); err != nil || !bytes.Equal(all, s.data) {
		t.Fatalf("final contents differ from the shadow (err %v)", err)
	}
}

// FuzzMemoryModel checks the sparse memory against a flat shadow over
// random sequences of every access channel, with addresses biased toward
// page edges and data toward zero-filled loads onto never-written pages.
func FuzzMemoryModel(f *testing.F) {
	// Map two pages, load a straddling word, read and fetch across the
	// boundary, then store into a fetched never-written page.
	f.Add([]byte{
		0, 0, 0, 10, 7, // Protect(0, 2 pages, rwx)
		1, 0, 6, 3, 1, 0x5A, // LoadRaw(PageSize-8, 8 non-zero bytes)
		6, 0, 6, // Read64(PageSize-8)
		8, 0, 6, 5, // Fetch(PageSize-8, 16): straddles
		9, 1, 0, 5, // FetchNoCopy(PageSize, 16): never written
		3, 1, 0, 1, 0x11, // Write64(PageSize, non-zero)
		9, 1, 0, 5, // FetchNoCopy(PageSize, 16)
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		runModel(t, input)
	})
}

// TestFirstDiff: the page-by-page sweep finds the lowest differing
// address, including differences on a page only one side has written,
// and treats an explicitly written zero as equal to a never-written page.
func TestFirstDiff(t *testing.T) {
	a, b := New(4*PageSize), New(4*PageSize)
	if _, ok := FirstDiff(a, b); ok {
		t.Fatal("two fresh memories differ")
	}
	if err := a.LoadRaw(PageSize, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := a.Protect(PageSize, PageSize, PermRW); err != nil {
		t.Fatal(err)
	}
	if err := a.Write8(PageSize+5, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := FirstDiff(a, b); ok {
		t.Fatal("an explicitly zeroed frame differs from the zero page")
	}
	if err := b.LoadRaw(3*PageSize-1, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := a.LoadRaw(3*PageSize, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if addr, ok := FirstDiff(a, b); !ok || addr != 3*PageSize-1 {
		t.Fatalf("FirstDiff = %#x, %v; want %#x", addr, ok, 3*PageSize-1)
	}
}
