package rewrite_test

import (
	"math/rand"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/rewrite"
)

func TestPreservesFunction(t *testing.T) {
	l := lib(t)
	for _, variant := range []rewrite.Engine{rewrite.EngineStaticDAC22, rewrite.EngineStaticTCAD23} {
		a := bench.MtM("m", 6000, 5)
		golden := a.Clone()
		res := must(t)(run(variant)(a, l, rewrite.Config{Workers: 4}))
		if err := a.Check(aig.CheckOptions{}); err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		sa := aig.RandomSignature(golden, rand.New(rand.NewSource(1)), 4)
		sb := aig.RandomSignature(a, rand.New(rand.NewSource(1)), 4)
		if !aig.EqualSignatures(sa, sb) {
			t.Fatalf("%v: function changed", variant)
		}
		if res.Engine == "" || res.FinalAnds == 0 {
			t.Fatalf("%v: bad result %+v", variant, res)
		}
	}
}

// TestStaticInformationLosesQuality is the paper's Table 3 claim: static
// global information (decide on the original graph, apply later) misses
// the gains that dynamic re-evaluation captures, so DACPara ends smaller.
func TestStaticInformationLosesQuality(t *testing.T) {
	l := lib(t)
	seedTotals := struct{ static, dynamic int }{}
	for seed := int64(0); seed < 3; seed++ {
		a1 := bench.MtM("m", 8000, 16+seed)
		a2 := a1.Clone()
		st := must(t)(run(rewrite.EngineStaticDAC22)(a1, l, rewrite.Config{Workers: 4}))
		dy := must(t)(run(rewrite.EngineDACPara)(a2, l, rewrite.Config{Workers: 4}))
		seedTotals.static += st.AreaReduction()
		seedTotals.dynamic += dy.AreaReduction()
	}
	if seedTotals.dynamic <= seedTotals.static {
		t.Fatalf("dynamic (%d) not better than static (%d) in aggregate",
			seedTotals.dynamic, seedTotals.static)
	}
	t.Logf("area reduction: static=%d dynamic=%d (+%.1f%%)",
		seedTotals.static, seedTotals.dynamic,
		100*float64(seedTotals.dynamic-seedTotals.static)/float64(seedTotals.static))
}

func TestStaleDecisionsAreCounted(t *testing.T) {
	l := lib(t)
	a := bench.MtM("m", 8000, 9)
	res := must(t)(run(rewrite.EngineStaticDAC22)(a, l, rewrite.Config{Workers: 4}))
	if res.Attempts == 0 {
		t.Fatal("no attempts recorded")
	}
	if res.Stale == 0 {
		t.Log("no stale decisions on this seed (acceptable but unusual)")
	}
	if res.Replacements+res.Stale > res.Attempts {
		t.Fatalf("bookkeeping: repl=%d stale=%d attempts=%d",
			res.Replacements, res.Stale, res.Attempts)
	}
}

func TestVariantNames(t *testing.T) {
	l := lib(t)
	for eng, want := range map[rewrite.Engine]string{
		rewrite.EngineStaticDAC22:  "dac22-novelrewrite",
		rewrite.EngineStaticTCAD23: "tcad23-gpu",
	} {
		if res := must(t)(run(eng)(bench.Sin(6), l, rewrite.Config{Workers: 1})); res.Engine != want {
			t.Fatalf("%s reports engine %q, want %q", eng, res.Engine, want)
		}
	}
}
