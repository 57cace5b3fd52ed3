package main

import (
	"strings"
	"testing"
)

// TestWrongPinFailsOps is the benchmark's self-test: with the true pins
// every op passes, and once the pinned digests are wrong the same ops
// fail their checks and count against op_success_ratio.
func TestWrongPinFailsOps(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			s, err := workloads[name].start(defaultSeed, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			if err := prepare(s); err != nil {
				t.Fatal(err)
			}
			const ops = 2
			if lr := closedLoop(s, 1, ops, nil); lr.failed != 0 {
				t.Fatalf("true pins: %d of %d ops failed: %s", lr.failed, ops, lr.firstFail)
			}

			wrong := func(pins []string) []string {
				out := make([]string, len(pins))
				for i := range out {
					out[i] = "0000000000000000"
				}
				return out
			}
			switch s := s.(type) {
			case *campaign:
				s.pins = wrong(s.pins)
			case *daemon:
				s.pins = wrong(s.pins)
			case *scan:
				s.pins = wrong(s.pins)
			default:
				t.Fatalf("unknown session %T", s)
			}
			lr := closedLoop(s, 1, ops, nil)
			if lr.failed != ops {
				t.Fatalf("wrong pins: %d of %d ops failed, want all", lr.failed, ops)
			}
			if !strings.Contains(lr.firstFail, "simulated statistics moved") {
				t.Fatalf("wrong pins failed for another reason: %s", lr.firstFail)
			}
		})
	}
}
