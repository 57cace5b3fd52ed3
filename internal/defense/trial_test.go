package defense

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/mibench"
	"repro/internal/rop"
	"repro/internal/sched"
	"repro/internal/spectre"
)

// TestTrialMatchesEvaluate: a Trial shared by a job's reps — fanned
// over sched.Map, so at workers=4 several reps race to assemble its
// attack module — reports, rep for rep, exactly the Outcome (Detail
// included) a fresh evaluation per rep does, for every named posture,
// every variant, both attackers and three seeds.
func TestTrialMatchesEvaluate(t *testing.T) {
	type pair struct {
		name string
		p    Posture
		atk  Attacker
	}
	var pairs []pair
	for _, name := range PostureNames() {
		p, _ := PostureByName(name)
		for _, v := range spectre.AllVariants() {
			// crspectred's adaptive attacker (both info leaks) and the
			// bare one, which plans blind against the unslid base.
			for _, atk := range []Attacker{{Variant: v, LeakCanary: true, LeakLayout: true}, {Variant: v}} {
				pairs = append(pairs, pair{name, p, atk})
			}
		}
	}
	const seeds = 3
	seedOf := func(task int) int64 { return sched.DeriveSeed(7, uint64(task%seeds)) }
	ctx := context.Background()

	fresh, err := sched.Map(ctx, 4, len(pairs)*seeds, func(_ context.Context, i int) (Outcome, error) {
		c := pairs[i/seeds]
		return Evaluate(c.p, c.atk, seedOf(i))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		trials := make([]*Trial, len(pairs))
		for i, c := range pairs {
			trials[i] = NewTrial(c.p, c.atk)
		}
		shared, err := sched.Map(ctx, workers, len(pairs)*seeds, func(_ context.Context, i int) (Outcome, error) {
			return trials[i/seeds].Run(seedOf(i))
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range shared {
			if o != fresh[i] {
				c := pairs[i/seeds]
				t.Errorf("workers=%d %s %+v seed %d: shared trial %+v, fresh %+v",
					workers, c.name, c.atk, seedOf(i), o, fresh[i])
			}
		}
	}
}

// TestHostModulesMatchFreshAssembly: the package-wide host modules,
// after the chain has run against them, still link to images
// byte-equal to a fresh assembly — for both canary settings.
func TestHostModulesMatchFreshAssembly(t *testing.T) {
	for _, canary := range []bool{false, true} {
		p := Posture{DEP: true, Canary: canary}
		if _, err := Evaluate(p, Attacker{LeakCanary: true, LeakLayout: true}, 3); err != nil {
			t.Fatal(err)
		}
		cached, err := hostModule(canary)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := hostModule(canary); again != cached {
			t.Errorf("canary=%v: host module assembled twice", canary)
		}
		fresh, err := mibench.Math(150).HostModule(rop.HostOptions{Canary: canary, Secret: Secret})
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []uint64{hostBase, hostBase + 7*isa.PageSize} {
			got, err := cached.Link(base)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Link(base)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("canary=%v base %#x: cached host module links differently from a fresh assembly", canary, base)
			}
		}
	}
}

// TestTrialRunAllocationBudget: a warm rep under dep with both leaks —
// host and attack modules already assembled by the trial — allocates
// the machine and the run, not the binaries (the attack module alone
// carries a 128 KiB probe array).
func TestTrialRunAllocationBudget(t *testing.T) {
	const budget = 320 << 10
	p, ok := PostureByName("dep")
	if !ok {
		t.Fatal("no dep posture")
	}
	trial := NewTrial(p, Attacker{LeakCanary: true, LeakLayout: true})
	if _, err := trial.Run(0); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 4
	for i := 1; i <= runs; i++ {
		if _, err := trial.Run(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	if got >= budget {
		t.Fatalf("warm Trial.Run under dep allocated %d bytes, budget %d", got, budget)
	}
	t.Logf("warm Trial.Run under dep: %d bytes/rep", got)
}

// BenchmarkAttackJob is one crspectred attack job's engine work: a
// fresh Trial (dep, both leaks) and 16 reps at derived seeds, serially.
func BenchmarkAttackJob(b *testing.B) {
	const reps = 16
	p, _ := PostureByName("dep")
	atk := Attacker{LeakCanary: true, LeakLayout: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		trial := NewTrial(p, atk)
		for r := 0; r < reps; r++ {
			if _, err := trial.Run(sched.DeriveSeed(1, uint64(r))); err != nil {
				b.Fatal(err)
			}
		}
	}
}
