package dacpara

import (
	"testing"

	"dacpara/internal/aig"
)

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
