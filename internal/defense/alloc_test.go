package defense

import (
	"runtime"
	"testing"
)

// TestEvaluateAllocationBudget: one attack rep under DEP — assemble the
// host and attack modules, build the machine, run the ROP chain and the
// covert channel — allocates what it touches, not a flat guest memory.
func TestEvaluateAllocationBudget(t *testing.T) {
	const budget = 2 << 20
	p, ok := PostureByName("dep")
	if !ok {
		t.Fatal("no dep posture")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for i := 0; i < runs; i++ {
		if _, err := Evaluate(p, Attacker{}, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= budget {
		t.Fatalf("Evaluate under dep allocated %d bytes, budget %d", got, budget)
	}
}
