package rewrite_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"dacpara/internal/aig"
	"dacpara/internal/galois"
	"dacpara/internal/rewrite"
)

// TestStressFaultInjectionAcrossWorkerCounts drives the speculative
// engine across worker-count permutations with shuffled worklists and a
// nonzero forced-abort rate, asserting after every run that the graph
// still satisfies its structural invariants and computes the same
// functions. Run with -race to make it a race test as well. dacpara runs
// under the same plan and must not notice it: it builds no executor, so
// nothing is refused, shuffled or aborted, and its output is the plain
// run's.
func TestStressFaultInjectionAcrossWorkerCounts(t *testing.T) {
	l := lib(t)
	workerCounts := []int{1, 2, 4, 8}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		workerCounts = []int{2, 4}
		seeds = seeds[:1]
	}
	stressEngines := []namedEngine{
		{"dacpara", run(rewrite.EngineDACPara)},
		{"lockpar", run(rewrite.EngineLockPar)},
	}
	rng := rand.New(rand.NewSource(0xDAC))
	base := randomAIG(t, rng, 24, 500, 8)
	refSig := aig.RandomSignature(base, rand.New(rand.NewSource(1)), 16)
	plain := base.Clone()
	must(t)(run(rewrite.EngineDACPara)(plain, l, rewrite.Config{Workers: 1}))
	plainDigest := aig.StructuralDigest(plain)

	for _, eng := range stressEngines {
		for _, workers := range workerCounts {
			for _, seed := range seeds {
				name := fmt.Sprintf("%s/w%d/seed%d", eng.name, workers, seed)
				t.Run(name, func(t *testing.T) {
					net := base.Clone()
					cfg := rewrite.Config{
						Workers: workers,
						Fault: &galois.FaultPlan{
							Seed:            seed,
							AbortRate:       0.25,
							ShuffleWorklist: true,
						},
					}
					res := must(t)(eng.run(net, l, cfg))
					if eng.name == "dacpara" {
						if res.Aborts != 0 || res.InjectedAborts != 0 || res.Commits != 0 {
							t.Errorf("dacpara ran activities: %d commits, %d aborts (%d injected)", res.Commits, res.Aborts, res.InjectedAborts)
						}
						if d := aig.StructuralDigest(net); d != plainDigest {
							t.Errorf("digest %s under the fault plan, %s at one worker without it", d, plainDigest)
						}
					} else if workers > 1 && res.InjectedAborts == 0 {
						t.Errorf("no injected aborts at rate 0.25")
					}
					if err := net.Check(eng.checkOptions()); err != nil {
						t.Fatalf("invariants violated: %v", err)
					}
					sig := aig.RandomSignature(net, rand.New(rand.NewSource(1)), 16)
					if !slices.Equal(refSig, sig) {
						t.Fatal("rewriting under fault injection broke equivalence")
					}
				})
			}
		}
	}
}

// TestStressBudgetErrorLeavesConsistentGraph exhausts iccad18's retry
// budget mid-run and verifies the partial result is still a valid,
// equivalent network — the contract that lets Run return a budget error
// without rolling anything back.
func TestStressBudgetErrorLeavesConsistentGraph(t *testing.T) {
	l := lib(t)
	rng := rand.New(rand.NewSource(7))
	base := randomAIG(t, rng, 20, 400, 6)
	refSig := aig.RandomSignature(base, rand.New(rand.NewSource(2)), 16)
	net := base.Clone()
	cfg := rewrite.Config{
		Workers: 4,
		Fault:   &galois.FaultPlan{Seed: 11, AbortRate: 1.0, RetryBudget: 30},
	}
	res, err := run(rewrite.EngineLockPar)(net, l, cfg)
	if err == nil {
		t.Fatal("expected a retry-budget error at abort rate 1.0")
	}
	if !res.Incomplete {
		t.Fatal("partial run not marked Incomplete")
	}
	if cerr := net.Check(aig.CheckOptions{AllowDuplicates: true}); cerr != nil {
		t.Fatalf("partial run left invalid graph: %v", cerr)
	}
	sig := aig.RandomSignature(net, rand.New(rand.NewSource(2)), 16)
	if !slices.Equal(refSig, sig) {
		t.Fatal("partial run broke equivalence")
	}
}

// TestStressOversubscribed puts a team of eight on one processor, with
// stalls and a lock-hold delay that send workers to sleep inside a phase:
// the barriers must yield and must give up spinning by the clock, or the
// run would crawl from one scheduler preemption to the next. It has to
// finish the stress circuit, equivalent and consistent, like the runs
// above.
func TestStressOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l := lib(t)
	base := randomAIG(t, rand.New(rand.NewSource(0xDAC)), 24, 500, 8)
	refSig := aig.RandomSignature(base, rand.New(rand.NewSource(1)), 16)
	for _, eng := range []namedEngine{
		{"dacpara", run(rewrite.EngineDACPara)},
		{"lockpar", run(rewrite.EngineLockPar)},
		{"dac22", run(rewrite.EngineStaticDAC22)},
	} {
		t.Run(eng.name, func(t *testing.T) {
			net := base.Clone()
			start := time.Now()
			res := must(t)(eng.run(net, l, rewrite.Config{
				Workers: 8,
				Fault: &galois.FaultPlan{
					Seed: 4, AbortRate: 0.1, ShuffleWorklist: true,
					StallRate: 0.02, StallFor: 50 * time.Microsecond,
					LockHoldDelay: 2 * time.Microsecond,
				},
			}))
			if res.Threads != 8 {
				t.Fatalf("ran on %d workers", res.Threads)
			}
			if err := net.Check(eng.checkOptions()); err != nil {
				t.Fatalf("invariants violated: %v", err)
			}
			sig := aig.RandomSignature(net, rand.New(rand.NewSource(1)), 16)
			if !slices.Equal(refSig, sig) {
				t.Fatal("rewriting on an oversubscribed team broke equivalence")
			}
			t.Logf("8 workers on one processor: %v", time.Since(start))
		})
	}
}
