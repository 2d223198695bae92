package dacpara

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/metrics"
)

// cecBudgetAnds bounds the circuits that get a full SAT-backed
// equivalence proof in the differential pass; larger ones rely on the
// 512-pattern random-simulation screen, which any functional bug in a
// rewriting engine has no realistic chance of surviving.
const cecBudgetAnds = 1500

// checkOptions holds eng's result to strash uniqueness unless it may
// leave two ANDs on one fanin pair: dacpara and iccad18 do not merge the
// fanouts a replacement makes equal (EXPERIMENTS.md E18); abc, dac22 and
// tcad23 do.
func checkOptions(eng Engine) aig.CheckOptions {
	return aig.CheckOptions{AllowDuplicates: eng == EngineDACPara || eng == EngineLockPar}
}

// TestDifferentialEngines is the differential-testing pass of the
// suite: every generated tiny-scale circuit goes through all five
// engines at two worker counts, and each result must match the golden
// input functionally. Because every engine is checked against the same
// golden signature (same seed, same PI ordering), agreement with the
// golden implies pairwise agreement across engines. Small circuits
// additionally get a SAT-backed combinational equivalence proof.
func TestDifferentialEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range BenchmarkNames(ScaleTiny) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			golden, err := Generate(name, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			const seed, rounds = 1789, 8
			goldenSig := aig.RandomSignature(golden, rand.New(rand.NewSource(seed)), rounds)
			small := golden.Stats().Ands <= cecBudgetAnds
			for _, eng := range Engines() {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s-w%d", eng, workers), func(t *testing.T) {
						net := golden.Clone()
						m := NewMetrics()
						res, err := Rewrite(net, eng, Config{Workers: workers, Metrics: m})
						if err != nil {
							t.Fatal(err)
						}
						if err := net.Check(checkOptions(eng)); err != nil {
							t.Fatalf("structural check: %v", err)
						}
						sig := aig.RandomSignature(net, rand.New(rand.NewSource(seed)), rounds)
						if !slices.Equal(goldenSig, sig) {
							t.Fatalf("%s result differs from input under simulation", eng)
						}
						// The same run exercises the instrumentation of every
						// engine: the snapshot must exist and agree with the
						// result it describes.
						s := res.Metrics
						if s == nil {
							t.Fatalf("%s: no metrics snapshot", eng)
						}
						if s.Engine == "" || len(s.Phases) == 0 {
							t.Fatalf("%s: degenerate snapshot %+v", eng, s)
						}
						// Every engine runs its commits as a bracketed phase of
						// the one loop: the replacement stage of a split pass,
						// the fused operator of a commit-only one.
						commit := "replace"
						if eng == EngineSerial || eng == EngineLockPar {
							commit = "fused"
						}
						if i := slices.IndexFunc(s.Phases, func(p metrics.PhaseSnapshot) bool { return p.Name == commit }); i < 0 || s.Phases[i].WallNs <= 0 {
							t.Fatalf("%s: no %s phase with wall time in %+v", eng, commit, s.Phases)
						}
						if s.QoR.InitialAnds != res.InitialAnds || s.QoR.FinalAnds != res.FinalAnds {
							t.Fatalf("%s: snapshot QoR %d->%d, result %d->%d",
								eng, s.QoR.InitialAnds, s.QoR.FinalAnds, res.InitialAnds, res.FinalAnds)
						}
						if small && workers == 4 {
							if _, err := Verify(golden, net, 0); err != nil {
								t.Fatal(err)
							}
						}
					})
				}
			}
		})
	}
}

// TestDifferentialCrossPassFlow runs whole cross-pass sequences through
// the framework — rewrite, level-parallel refactor and resub, and balance
// in one script — at one and several workers, and checks each final
// network against the golden input's simulation signature. Small
// circuits additionally get a SAT-backed equivalence proof. This is the
// differential pass for the pass-engine framework itself: a stale-plan
// bug in any framework pass, at any worker count, shows up here.
func TestDifferentialCrossPassFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const script = "rw; rf; rs; b"
	for _, name := range BenchmarkNames(ScaleTiny) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			golden, err := Generate(name, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			const seed, rounds = 1789, 8
			goldenSig := aig.RandomSignature(golden, rand.New(rand.NewSource(seed)), rounds)
			small := golden.Stats().Ands <= cecBudgetAnds
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
					// Small circuits are also CEC-proved, by the job's own check.
					out := runJob(t, golden.Clone(), Job{Flow: script, Workers: workers, Verify: small})
					if len(out.Steps) != 4 {
						t.Fatalf("flow ran %d steps, want 4", len(out.Steps))
					}
					for _, res := range out.Steps {
						if res.Incomplete {
							t.Fatalf("step %s incomplete without error", res.Engine)
						}
					}
					if err := out.Net.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
						t.Fatalf("structural check: %v", err)
					}
					sig := aig.RandomSignature(out.Net, rand.New(rand.NewSource(seed)), rounds)
					if !slices.Equal(goldenSig, sig) {
						t.Fatalf("flow result differs from input under simulation")
					}
				})
			}
		})
	}
}
