package vm

import (
	"runtime"
	"testing"
)

var machineSink *Machine

// TestNewAllocationBudget: building a default machine pays for the page
// tables and the core's fixed-size structures, not for 16 MiB of guest
// memory it has not touched yet.
func TestNewAllocationBudget(t *testing.T) {
	const budget = 256 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 5
	for i := 0; i < runs; i++ {
		machineSink = New(DefaultConfig())
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= budget {
		t.Fatalf("vm.New(DefaultConfig()) allocated %d bytes, budget %d", got, budget)
	}
}

// BenchmarkVMNew measures building a default machine (memory, core,
// cache hierarchy, predictors).
func BenchmarkVMNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		machineSink = New(DefaultConfig())
	}
}
