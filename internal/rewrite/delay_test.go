package rewrite

import (
	"context"
	"math/rand"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/rewlib"
)

// TestPreserveDelayNeverDeepens: with PreserveDelay set, rewriting must
// not increase the network depth.
func TestPreserveDelayNeverDeepens(t *testing.T) {
	lib := testLib(t)
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := randomAIG(t, rng, 8, 500, 8)
		res, err := Run(context.Background(), EngineSerial, a, lib, Config{PreserveDelay: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalDelay > res.InitialDelay {
			t.Fatalf("seed %d: delay %d -> %d under PreserveDelay",
				seed, res.InitialDelay, res.FinalDelay)
		}
		if res.FinalAnds > res.InitialAnds {
			t.Fatalf("seed %d: area grew", seed)
		}
	}
}

// TestLevelEstimateFromScratch: the delay estimate Execute makes per
// candidate under PreserveDelay takes its table from the Scratch, like
// the plan it reads, and a table left by a larger structure does not show
// in a smaller one's estimate.
func TestLevelEstimateFromScratch(t *testing.T) {
	a := aig.New()
	x, y, z := a.AddPI(), a.AddPI(), a.AddPI()
	deep := a.And(a.And(x, y), z) // level 2
	a.Levelize()
	in := func(v int) rewlib.SLit { return rewlib.SLit(2 * (1 + v)) }
	gate := func(k int) rewlib.SLit { return rewlib.SLit(2 * (gateBase + k)) }
	// ((i0 & i1) & i2) & i3, and i0 & i1 alone.
	chain := &rewlib.Structure{Nodes: []rewlib.SNode{{In0: in(0), In1: in(1)}, {In0: gate(0), In1: in(2)}, {In0: gate(1), In1: in(3)}}, Out: gate(2)}
	pair := &rewlib.Structure{Nodes: []rewlib.SNode{{In0: in(0), In1: in(1)}}, Out: gate(0)}

	s := NewScratch()
	s.vals[0] = aig.LitFalse
	for v, l := range []aig.Lit{x, deep, y, z} {
		s.vals[1+v] = l
	}
	for k := range chain.Nodes {
		s.vals[gateBase+k] = litNew
	}
	if got := s.level(a, chain); got != 5 {
		t.Fatalf("chain over a level-2 input: level %d, want 5", got)
	}
	s.vals[2] = y
	if got := s.level(a, pair); got != 1 {
		t.Fatalf("pair of inputs after the chain: level %d, want 1", got)
	}
	if n := testing.AllocsPerRun(100, func() { s.level(a, chain) }); n != 0 {
		t.Fatalf("level allocates %v times per call on a warm Scratch", n)
	}
}
