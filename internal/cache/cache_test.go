package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestColdMissThenHit(t *testing.T) {
	c := MustCache("L1", 1<<10, 64, 2)
	if c.Access(0x100) {
		t.Error("cold access hit")
	}
	if !c.Access(0x100) {
		t.Error("warm access missed")
	}
	// Same line, different offset.
	if !c.Access(0x13f) {
		t.Error("same-line access missed")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestFlushEvicts(t *testing.T) {
	c := MustCache("L1", 1<<10, 64, 2)
	c.Access(0x200)
	if !c.Lookup(0x200) {
		t.Fatal("line not present after fill")
	}
	c.Flush(0x23f) // same line
	if c.Lookup(0x200) {
		t.Error("line present after flush")
	}
	if c.Stats().Flushes != 1 {
		t.Errorf("flush count = %d", c.Stats().Flushes)
	}
	// Flushing an absent line is a no-op.
	c.Flush(0x8000)
	if c.Stats().Flushes != 1 {
		t.Error("flush of absent line counted")
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 64B lines, 2 sets → addresses 0, 128, 256 map to set 0.
	c := MustCache("L1", 256, 64, 2)
	c.Access(0)   // fill way 0
	c.Access(128) // fill way 1
	c.Access(0)   // touch 0: now 128 is LRU
	c.Access(256) // evicts 128
	if !c.Lookup(0) {
		t.Error("recently used line evicted")
	}
	if c.Lookup(128) {
		t.Error("LRU line survived")
	}
	if !c.Lookup(256) {
		t.Error("new line absent")
	}
	if c.Stats().Evicts != 1 {
		t.Errorf("evicts = %d", c.Stats().Evicts)
	}
}

// Property: immediately after Access(a), Lookup(a) is true (the line was
// filled or already present).
func TestQuickAccessThenPresent(t *testing.T) {
	c := MustCache("L1", 32<<10, 64, 8)
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		a := uint64(rng.Intn(1 << 22))
		c.Access(a)
		return c.Lookup(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: hits + misses == accesses always.
func TestQuickStatsConsistent(t *testing.T) {
	c := MustCache("L1", 4<<10, 64, 4)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		c.Access(uint64(rng.Intn(1 << 16)))
	}
	s := c.Stats()
	if s.Hits+s.Misses != s.Accesses {
		t.Errorf("hits %d + misses %d != accesses %d", s.Hits, s.Misses, s.Accesses)
	}
}

func TestBadGeometry(t *testing.T) {
	if _, err := NewCache("x", 1000, 64, 8); err == nil {
		t.Error("accepted non-divisible size")
	}
	if _, err := NewCache("x", 1<<10, 60, 2); err == nil {
		t.Error("accepted non-power-of-two line")
	}
	if _, err := NewCache("x", 1<<10, 64, 0); err == nil {
		t.Error("accepted zero ways")
	}
	if _, err := NewCache("x", 3*64*2, 64, 2); err == nil {
		t.Error("accepted non-power-of-two sets")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := DefaultHierarchy()
	lat, lvl := h.Access(0x1000)
	if lvl != 3 || lat != h.Lat.Memory {
		t.Errorf("cold access served from level %d lat %d", lvl, lat)
	}
	lat, lvl = h.Access(0x1000)
	if lvl != 1 || lat != h.Lat.L1Hit {
		t.Errorf("warm access served from level %d lat %d", lvl, lat)
	}
	// Evict from L1 only, by flushing L1 but not L2: emulate by filling
	// conflicting lines is complex; instead flush both and check L2 path
	// via a fresh hierarchy where we prime L2 through L1 eviction.
	h.L1.Flush(0x1000)
	lat, lvl = h.Access(0x1000)
	if lvl != 2 || lat != h.Lat.L2Hit {
		t.Errorf("L2 access served from level %d lat %d", lvl, lat)
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := DefaultHierarchy()
	h.Access(0x40)
	if !h.Cached(0x40) {
		t.Fatal("line absent after access")
	}
	h.Flush(0x40)
	if h.Cached(0x40) {
		t.Error("line present after hierarchy flush")
	}
	h.Access(0x40)
	h.FlushAll()
	if h.Cached(0x40) {
		t.Error("line present after FlushAll")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty stats should have 0 miss rate")
	}
	s = Stats{Accesses: 10, Misses: 5}
	if s.MissRate() != 0.5 {
		t.Errorf("miss rate = %f", s.MissRate())
	}
}

func TestResetStats(t *testing.T) {
	c := MustCache("L1", 1<<10, 64, 2)
	c.Access(0)
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Error("stats not reset")
	}
	if !c.Lookup(0) {
		t.Error("ResetStats cleared cache contents")
	}
}

func TestFlushAndTimingDistinguishable(t *testing.T) {
	// The covert-channel premise: after flushing, a timed access is
	// slower than a cached one by a margin the receiver can threshold.
	h := DefaultHierarchy()
	h.Access(0x5000)
	warm, _ := h.Access(0x5000)
	h.Flush(0x5000)
	cold, _ := h.Access(0x5000)
	if cold <= warm*10 {
		t.Errorf("cold %d vs warm %d: timing margin too small for flush+reload", cold, warm)
	}
}

func TestNextLinePrefetch(t *testing.T) {
	h := DefaultHierarchy()
	h.NextLinePrefetch = true
	// Miss on line 0 prefetches line 1 into L2.
	h.Access(0x10000)
	if h.Prefetches != 1 {
		t.Fatalf("prefetch count = %d", h.Prefetches)
	}
	lat, lvl := h.Access(0x10040) // next line: L2 hit thanks to prefetch
	if lvl != 2 || lat != h.Lat.L2Hit {
		t.Errorf("prefetched line served from level %d (lat %d)", lvl, lat)
	}
	// Without prefetch the same pattern misses to memory.
	h2 := DefaultHierarchy()
	h2.Access(0x10000)
	if _, lvl := h2.Access(0x10040); lvl != 3 {
		t.Errorf("baseline next-line access served from level %d", lvl)
	}
}

func TestPrefetchDoesNotBridgeProbeStride(t *testing.T) {
	// The flush+reload probe slots sit 512 bytes (8 lines) apart: the
	// next-line prefetcher must not warm a different slot.
	h := DefaultHierarchy()
	h.NextLinePrefetch = true
	h.Access(0x20000)
	if h.Cached(0x20000 + 512) {
		t.Error("prefetch crossed a probe stride")
	}
}

func TestEvictAtBounds(t *testing.T) {
	c := MustCache("x", 1<<10, 64, 2)
	if c.EvictAt(1<<20, 0) || c.EvictAt(0, 99) || c.EvictAt(0, -1) {
		t.Error("out-of-range EvictAt reported success")
	}
	c.Access(0)
	sets, ways := c.Geometry()
	if sets == 0 || ways != 2 {
		t.Errorf("geometry = %d, %d", sets, ways)
	}
	evicted := false
	for w := 0; w < ways; w++ {
		if c.EvictAt(0, w) {
			evicted = true
		}
	}
	if !evicted {
		t.Error("EvictAt missed the filled way")
	}
	if c.Lookup(0) {
		t.Error("line survived EvictAt sweep")
	}
}

// TestDefaultHierarchyAllocs: every machine builds a hierarchy, so its
// construction stays a handful of allocations (the hierarchy, two
// levels, two flat line arrays) rather than one per set.
func TestDefaultHierarchyAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(20, func() { DefaultHierarchy() }); n > 8 {
		t.Fatalf("DefaultHierarchy made %.0f allocations, budget 8", n)
	}
}

func BenchmarkDefaultHierarchy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hierarchySink = DefaultHierarchy()
	}
}

var hierarchySink *Hierarchy
