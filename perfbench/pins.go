package main

import "fmt"

// Pinned digests of the simulated statistics for --seed 1 (defaultSeed).
// A change meant only to speed up the simulator leaves every simulated
// statistic identical, so these must not move; an op whose digest
// differs fails its check. A change that alters the model on purpose
// re-pins them from the "digests" note of a --seed 1 run.
var (
	// campaignPins[k] covers attempt k: PMU snapshot, recovered bytes,
	// chain length, sample count and HID accuracy.
	campaignPins = []string{
		"bbff209ea0907db1", "65b7115fab5a1d2f", "f34a8a112a5d24b1", "5f01df85eff206c7",
		"6c92d6442a031311", "3e433a4df2756ef5", "ba70e9da3cd13dd9", "f610879ac5ff3a84",
		"1ef1c7366d8675c3", "c4eb77b63b88e6a6", "794c2a34f3cf039f", "ef38068e1dd144ff",
		"1b3bdf1a46898040", "a2d1d16d8698adff", "89442ffccc72242c", "da2ff844e7c681d2",
	}
	// daemonPins[k] covers the attack.json bytes of job spec k.
	daemonPins = []string{
		"56fa2d133019cb78", "e10475fbc360abdf", "66375067249cc3c9", "276b0388dc98f791",
		"113ccec78a1cd598", "a514e4425596cedf", "ff6d95f5712455c1", "e8784ec8c379bd71",
		"6204ddf4940f04be", "6b0765c5ce24d75e", "2cf60f1621c6175b", "d3c607bb162fc26f",
		"f5d26de36478740e", "c17f8a01beac4f0a", "712ffe2902b96890", "359cbb815cce376f",
	}
	// scanPins[0] covers the findings report bytes.
	scanPins = []string{"677c70480c49e711"}
)

// pinsFor returns the pins that apply to a run: only the default seed
// has them.
func pinsFor(seed int64, pins []string) []string {
	if seed != defaultSeed {
		return nil
	}
	return pins
}

// checkPin compares input k's digest with its pin, if pinned.
func checkPin(pins []string, k int, digest string) error {
	if pins == nil || pins[k] == digest {
		return nil
	}
	return fmt.Errorf("simulated statistics moved: input %d digest %s, pinned %s", k, digest, pins[k])
}
