package cpu

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/mem"
)

var cpuSink *CPU

// TestCPUSize: the CPU struct must stay a small object (Go's size-class
// limit is 32 KiB). Above it every core is a zeroed large-object span,
// which is what made core construction dominate forced-speculation
// confirmation runs.
func TestCPUSize(t *testing.T) {
	const limit = 32 << 10
	if got := unsafe.Sizeof(CPU{}); got > limit {
		t.Fatalf("unsafe.Sizeof(CPU{}) = %d bytes, limit %d (predecode slots: %d)", got, limit, icacheSize)
	}
}

// TestCPUNewAllocationBudget: a fresh core pays for its struct, cache
// hierarchy and predictors, all sized to the traffic a run sees.
func TestCPUNewAllocationBudget(t *testing.T) {
	const budget = 160 << 10
	m := mem.New(1 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		cpuSink = New(m, DefaultConfig())
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= budget {
		t.Fatalf("cpu.New(mem, DefaultConfig()) allocated %d bytes, budget %d", got, budget)
	}
}

// BenchmarkCPUNew measures building one core (struct, cache hierarchy,
// branch unit) over an existing memory.
func BenchmarkCPUNew(b *testing.B) {
	m := mem.New(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cpuSink = New(m, DefaultConfig())
	}
}
