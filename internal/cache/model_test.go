package cache

import (
	"math/rand"
	"testing"
)

// refCache is the reference model for one cache level: every line
// carries an explicit valid bit beside its LRU stamp, so validity never
// depends on the stamp's value. Cache must agree with it on every
// observable result.
type refCache struct {
	sets, ways uint64
	lineSize   uint64
	valid      []bool
	tag, lru   []uint64
	stamp      uint64
	stats      Stats
}

func newRefCache(size, lineSize uint64, ways int) *refCache {
	n := size / lineSize
	return &refCache{
		sets: n / uint64(ways), ways: uint64(ways), lineSize: lineSize,
		valid: make([]bool, n), tag: make([]uint64, n), lru: make([]uint64, n),
	}
}

// find returns the index of the valid line holding addr, or -1, plus the
// set's first line index and the address tag.
func (r *refCache) find(addr uint64) (hit int, base, tag uint64) {
	la := addr / r.lineSize
	base, tag = (la%r.sets)*r.ways, la/r.sets
	for i := base; i < base+r.ways; i++ {
		if r.valid[i] && r.tag[i] == tag {
			return int(i), base, tag
		}
	}
	return -1, base, tag
}

func (r *refCache) lookup(addr uint64) bool {
	hit, _, _ := r.find(addr)
	return hit >= 0
}

func (r *refCache) access(addr uint64) bool {
	r.stamp++
	r.stats.Accesses++
	hit, base, tag := r.find(addr)
	if hit >= 0 {
		r.lru[hit] = r.stamp
		r.stats.Hits++
		return true
	}
	r.stats.Misses++
	victim, full := base, true
	for i := base; i < base+r.ways; i++ {
		if !r.valid[i] {
			victim, full = i, false
			break
		}
		if r.lru[i] < r.lru[victim] {
			victim = i
		}
	}
	if full {
		r.stats.Evicts++
	}
	r.valid[victim], r.tag[victim], r.lru[victim] = true, tag, r.stamp
	return false
}

func (r *refCache) flush(addr uint64) {
	if hit, _, _ := r.find(addr); hit >= 0 {
		r.valid[hit] = false
		r.stats.Flushes++
	}
}

func (r *refCache) evictAt(set uint64, way int) bool {
	if set >= r.sets || way < 0 || uint64(way) >= r.ways {
		return false
	}
	i := set*r.ways + uint64(way)
	if !r.valid[i] {
		return false
	}
	r.valid[i] = false
	r.stats.Evicts++
	return true
}

func (r *refCache) flushAll() {
	for i := range r.valid {
		r.valid[i] = false
	}
}

// runCacheModel decodes input as a sequence of operations on a 4-set ×
// 4-way cache and its reference model. Addresses range over 8 tags per
// set, so sets overflow and LRU order decides victims; EvictAt
// coordinates include out-of-range sets and ways.
func runCacheModel(t *testing.T, input []byte) {
	const (
		lineSize = 64
		ways     = 4
		size     = 4 * ways * lineSize
	)
	c := MustCache("model", size, lineSize, ways)
	ref := newRefCache(size, lineSize, ways)
	addrOf := func(b byte) uint64 { return uint64(b%32)*lineSize + uint64(b/32)*8 }
	for step := 0; len(input) >= 2; step++ {
		op, arg := input[0]%8, input[1]
		input = input[2:]
		switch op {
		case 0, 1, 2: // Access, weighted so sets fill and overflow
			a := addrOf(arg)
			if got, want := c.Access(a), ref.access(a); got != want {
				t.Fatalf("step %d: Access(%#x) hit = %v, want %v", step, a, got, want)
			}
		case 3:
			a := addrOf(arg)
			if got, want := c.Lookup(a), ref.lookup(a); got != want {
				t.Fatalf("step %d: Lookup(%#x) = %v, want %v", step, a, got, want)
			}
		case 4, 5:
			c.Flush(addrOf(arg))
			ref.flush(addrOf(arg))
		case 6: // sets 0..5 and ways -1..4: a third of the coordinates are out of range
			set, way := uint64(arg%6), int(arg/6%6)-1
			if got, want := c.EvictAt(set, way), ref.evictAt(set, way); got != want {
				t.Fatalf("step %d: EvictAt(%d, %d) = %v, want %v", step, set, way, got, want)
			}
		case 7:
			if arg%4 != 0 { // FlushAll rarely, so contents build up
				continue
			}
			c.FlushAll()
			ref.flushAll()
		}
		if got, want := c.Stats(), ref.stats; got != want {
			t.Fatalf("step %d (op %d): stats %+v, want %+v", step, op, got, want)
		}
	}
	for b := 0; b < 256; b++ {
		if got, want := c.Lookup(addrOf(byte(b))), ref.lookup(addrOf(byte(b))); got != want {
			t.Fatalf("final contents: Lookup(%#x) = %v, want %v", addrOf(byte(b)), got, want)
		}
	}
}

// FuzzCacheModel checks the packed line representation (no valid bit;
// lru == 0 means invalid) against the explicit-valid-bit reference over
// random sequences of every cache operation.
func FuzzCacheModel(f *testing.F) {
	// Fill set 0 past its ways, touch the oldest line, overflow it again,
	// evict and flush, then refill after FlushAll.
	f.Add([]byte{
		0, 0, 0, 4, 0, 8, 0, 12, // Access tags 0..3 of set 0
		0, 0, 0, 16, // touch tag 0, then tag 4 evicts tag 1
		3, 4, 3, 0, // Lookup tag 1 (gone) and tag 0 (kept)
		6, 0, 6, 6, 6, 35, // EvictAt (0,-1), (0,0), (5,4): out of range, hit, out of range
		4, 0, 4, 0, // Flush tag 0 twice
		7, 0, 0, 0, 3, 0, // FlushAll, refill, Lookup
	})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(runCacheModel)
}
