package dacpara

import (
	"context"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/rewrite"
)

// TestDACParaIdenticalAcrossWorkers pins what the serial commit buys:
// dacpara and its flat ablation sweep in parallel but commit in worklist
// order on the caller, so on every tiny-suite circuit five runs at each of
// 1, 2 and 4 workers give one structural digest. A second digest means
// the commit order, or something the sweep stores, came to depend on the
// schedule.
func TestDACParaIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	lib, err := DefaultLibrary()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range BenchmarkNames(ScaleTiny) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			golden, err := Generate(name, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			// The flat ablation is no job engine, so both go to the table.
			for _, eng := range []Engine{EngineDACPara, rewrite.EngineFlat} {
				var first string
				for _, workers := range []int{1, 2, 4} {
					for run := 0; run < 5; run++ {
						net := golden.Clone()
						if _, err := rewrite.Run(context.Background(), eng, net, lib, Config{Workers: workers}); err != nil {
							t.Fatal(err)
						}
						d := aig.StructuralDigest(net)
						if first == "" {
							first = d
						} else if d != first {
							t.Fatalf("%s at %d workers, run %d: digest %s, the first run at one worker gave %s", eng, workers, run, d, first)
						}
					}
				}
			}
		})
	}
}

// TestICCAD18SingleWorkerByteIdentity pins the determinism boundary of
// the iccad18 engine. Multi-worker iccad18 is run-to-run
// nondeterministic by design — its lock-based speculation commits
// replacements in worker arrival order, so two runs interleave commits
// differently and diverge structurally (this is why golden_k4.json
// carries no iccad18-w4 rows; see DESIGN.md, "Multi-worker
// nondeterminism"). With a single worker there is no arrival race:
// commits happen in cut-enumeration order and the engine must be
// byte-identical across runs on every tiny-suite circuit. Any failure
// here means nondeterminism crept below the worker level — RNG seeding,
// map iteration, or allocation-order hashing — which would also poison
// the deterministic engines.
func TestICCAD18SingleWorkerByteIdentity(t *testing.T) {
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
			var digests [2]string
			var ands [2]int
			for i := range digests {
				net := golden.Clone()
				res, err := Rewrite(net, EngineLockPar, Config{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				digests[i] = aig.StructuralDigest(net)
				ands[i] = res.FinalAnds
			}
			if digests[0] != digests[1] {
				t.Fatalf("single-worker iccad18 not byte-identical: %s vs %s (%d vs %d ANDs)",
					digests[0], digests[1], ands[0], ands[1])
			}
		})
	}
}
