package refactor

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/bigtt"
	"dacpara/internal/rewrite"
)

func TestRefactorPreservesFunction(t *testing.T) {
	nets := []*aig.AIG{
		bench.Multiplier(10),
		bench.Sin(10),
		bench.Voter(31),
		bench.MemCtrl(4000, 11),
		bench.MtM("m", 6000, 3),
	}
	for _, base := range nets {
		checkPreserves(t, base)
	}
}

// TestRunParallelPreservesFunction runs the largest circuit of the suite
// at one and at four workers.
func TestRunParallelPreservesFunction(t *testing.T) {
	checkPreserves(t, bench.MtM("m", 8000, 21))
}

// checkPreserves refactors a copy of base at one and at four workers and
// fails if a copy changes function, breaks an invariant or grows.
func checkPreserves(t *testing.T, base *aig.AIG) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		a := base.Clone()
		before := aig.RandomSignature(a, rand.New(rand.NewSource(1)), 4)
		initial := a.NumAnds()
		res := run(a, Config{}, workers)
		if err := a.Check(aig.CheckOptions{}); err != nil {
			t.Fatalf("%s w%d: %v", a.Name, workers, err)
		}
		after := aig.RandomSignature(a, rand.New(rand.NewSource(1)), 4)
		if !slices.Equal(before, after) {
			t.Fatalf("%s w%d: function changed", a.Name, workers)
		}
		if a.NumAnds() > initial {
			t.Fatalf("%s w%d: area grew %d -> %d", a.Name, workers, initial, a.NumAnds())
		}
		t.Logf("%s w%d: %d -> %d (replacements %d, stale %d)",
			a.Name, workers, initial, a.NumAnds(), res.Replacements, res.Stale)
	}
}

// run is Run without a context.
func run(a *aig.AIG, cfg Config, workers int) rewrite.Result {
	res, _ := Run(context.Background(), a, cfg, workers)
	return res
}

func TestRefactorFindsWideRedundancy(t *testing.T) {
	// An 8-input redundant cone built as sum of minterms: 4-cut rewriting
	// cannot see all of it at once, refactoring can.
	a := aig.New()
	var in [6]aig.Lit
	for i := range in {
		in[i] = a.AddPI()
	}
	// f = (x0 & x1 & x2) | (x0 & x1 & !x2) == x0 & x1, written naively,
	// then combined redundantly with more inputs.
	t1 := a.And(a.And(in[0], in[1]), in[2])
	t2 := a.And(a.And(in[0], in[1]), in[2].Not())
	g := a.Or(t1, t2) // == x0&x1
	h := a.And(g, a.And(in[3], a.And(in[4], in[5])))
	a.AddPO(h)
	initial := a.NumAnds()
	res := run(a, Config{}, 1)
	if res.Replacements == 0 || a.NumAnds() >= initial {
		t.Fatalf("refactoring missed wide redundancy: %d -> %d (%d replacements)",
			initial, a.NumAnds(), res.Replacements)
	}
	if err := a.Check(aig.CheckOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestFactorCoverRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 100; iter++ {
		nv := 3 + rng.Intn(6)
		f := randomTT(rng, nv)
		got := evalPlan(newRefactorer(nil, Config{}).bestPlan(f), nv)
		if !got.Equal(f) {
			t.Fatalf("nv=%d: factored plan computes wrong function", nv)
		}
	}
}

func randomTT(rng *rand.Rand, nvars int) bigtt.TT {
	// Random function over nvars variables via random minterms.
	f := bigtt.New(nvars)
	for m := uint(0); m < 1<<uint(nvars); m++ {
		if rng.Intn(2) == 1 {
			var c bigtt.Cube
			for v := 0; v < nvars; v++ {
				c.Lits |= 1 << uint(v)
				c.Phase |= uint32(m>>uint(v)&1) << uint(v)
			}
			f = f.Or(c.Table(nvars))
		}
	}
	return f
}

// evalPlan evaluates a factored plan with plain variables as leaves.
func evalPlan(p plan, nvars int) bigtt.TT {
	var rec func(at int32) bigtt.TT
	rec = func(at int32) bigtt.TT {
		e := p.nodes[at]
		switch e.op {
		case opConst:
			return bigtt.Const(nvars, e.phase)
		case opLeaf:
			v := bigtt.Var(nvars, int(e.leaf))
			if e.phase {
				return v.Not()
			}
			return v
		case opAnd:
			return rec(e.l).And(rec(e.rr))
		default:
			return rec(e.l).Or(rec(e.rr))
		}
	}
	out := rec(p.root)
	if p.compl {
		out = out.Not()
	}
	return out
}

// serialReduction is what the serial refactoring pass, deleted since,
// saved on Sin(12) with its dead logic swept first, as every pass
// starts: 5314 -> 4921 ANDs. (On the unswept input it went 5548 -> 5097,
// and 204 of those were dead ANDs it had left in place.) To re-derive
// it, check out d0e1116, the last commit with the serial pass, add
// (*aig.AIG).Sweep as it stands in aig.go, and run refactor.Run(a,
// Config{}) on a swept bench.Sin(12); EXPERIMENTS.md E28 has the probe.
const serialReduction = 393

// TestRunKeepsSerialQuality: the level pass trades a few stale plans for
// parallelism; its area reduction must stay within 10% of the serial
// pass's.
func TestRunKeepsSerialQuality(t *testing.T) {
	a := bench.Sin(12)
	res := run(a, Config{}, 4)
	t.Logf("%d -> %d (stale %d); the serial pass saved %d", res.InitialAnds, res.FinalAnds, res.Stale, serialReduction)
	if float64(res.AreaReduction()) < 0.9*serialReduction {
		t.Fatalf("refactoring lost too much quality: %d vs the serial pass's %d", res.AreaReduction(), serialReduction)
	}
}
