package rewrite_test

import (
	"math/rand"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/rewrite"
)

func TestSingleThreadMatchesSerial(t *testing.T) {
	l := lib(t)
	// With one worker the fused-operator engine visits nodes in the same
	// topological order as the serial baseline and must produce an
	// identical result.
	a1 := bench.Multiplier(10)
	a2 := bench.Multiplier(10)
	serial := must(t)(run(rewrite.EngineSerial)(a1, l, rewrite.Config{}))
	par := must(t)(run(rewrite.EngineLockPar)(a2, l, rewrite.Config{Workers: 1}))
	if par.FinalAnds != serial.FinalAnds {
		t.Fatalf("1-thread lockpar area %d, serial %d", par.FinalAnds, serial.FinalAnds)
	}
	if par.Aborts != 0 {
		t.Fatalf("single worker cannot conflict, got %d aborts", par.Aborts)
	}
}

func TestParallelConflictsHappenAndResolve(t *testing.T) {
	l := lib(t)
	a := bench.Multiplier(16)
	golden := a.Clone()
	res := must(t)(run(rewrite.EngineLockPar)(a, l, rewrite.Config{Workers: 8}))
	if res.Aborts == 0 {
		t.Log("no conflicts observed (timing-dependent); result still checked")
	}
	if res.Commits < int64(res.Replacements) {
		t.Fatalf("commits %d < replacements %d", res.Commits, res.Replacements)
	}
	if err := a.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
		t.Fatal(err)
	}
	sa := aig.RandomSignature(golden, rand.New(rand.NewSource(1)), 4)
	sb := aig.RandomSignature(a, rand.New(rand.NewSource(1)), 4)
	if !aig.EqualSignatures(sa, sb) {
		t.Fatal("function changed")
	}
	if res.WastedWork > 0 && res.WastedFraction() <= 0 {
		t.Fatal("wasted-work accounting inconsistent")
	}
}

func TestMultiPass(t *testing.T) {
	l := lib(t)
	a := bench.Sin(10)
	golden := a.Clone()
	res := must(t)(run(rewrite.EngineLockPar)(a, l, rewrite.Config{Workers: 4, Passes: 2}))
	if res.FinalAnds >= res.InitialAnds {
		t.Fatalf("no improvement: %d -> %d", res.InitialAnds, res.FinalAnds)
	}
	if err := a.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
		t.Fatal(err)
	}
	sa := aig.RandomSignature(golden, rand.New(rand.NewSource(1)), 4)
	sb := aig.RandomSignature(a, rand.New(rand.NewSource(1)), 4)
	if !aig.EqualSignatures(sa, sb) {
		t.Fatal("function changed")
	}
	// A second pass can only improve or hold area. Two runs compare only
	// on one worker, where the engine is deterministic: on several, each
	// run's output depends on the order its activities arrived in.
	two := must(t)(run(rewrite.EngineLockPar)(golden.Clone(), l, rewrite.Config{Workers: 1, Passes: 2}))
	one := must(t)(run(rewrite.EngineLockPar)(golden.Clone(), l, rewrite.Config{Workers: 1, Passes: 1}))
	if two.FinalAnds > one.FinalAnds {
		t.Fatalf("two passes (%d) worse than one (%d)", two.FinalAnds, one.FinalAnds)
	}
}

func TestEngineName(t *testing.T) {
	l := lib(t)
	a := bench.Adder(8)
	res := must(t)(run(rewrite.EngineLockPar)(a, l, rewrite.Config{Workers: 2}))
	if res.Engine != "iccad18-lockpar" {
		t.Fatalf("engine name %q", res.Engine)
	}
	if res.Threads != 2 {
		t.Fatalf("threads %d", res.Threads)
	}
}
