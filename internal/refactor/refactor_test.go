package refactor

import (
	"math/rand"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/bigtt"
)

func TestRefactorPreservesFunction(t *testing.T) {
	nets := []*aig.AIG{
		bench.Multiplier(10),
		bench.Sin(10),
		bench.Voter(31),
		bench.MemCtrl(4000, 11),
		bench.MtM("m", 6000, 3),
	}
	for _, a := range nets {
		before := aig.RandomSignature(a, rand.New(rand.NewSource(1)), 4)
		initial := a.NumAnds()
		res := Run(a, Config{})
		if err := a.Check(aig.CheckOptions{}); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		after := aig.RandomSignature(a, rand.New(rand.NewSource(1)), 4)
		if !aig.EqualSignatures(before, after) {
			t.Fatalf("%s: function changed", a.Name)
		}
		if a.NumAnds() > initial {
			t.Fatalf("%s: area grew %d -> %d", a.Name, initial, a.NumAnds())
		}
		t.Logf("%s: %d -> %d (replacements %d)", a.Name, initial, a.NumAnds(), res.Replacements)
	}
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
	res := Run(a, Config{})
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

func TestRunParallelPreservesFunction(t *testing.T) {
	for _, workers := range []int{1, 4} {
		a := bench.MtM("m", 8000, 21)
		golden := aig.RandomSignature(a, rand.New(rand.NewSource(6)), 4)
		initial := a.NumAnds()
		res := RunParallel(a, Config{}, workers)
		if err := a.Check(aig.CheckOptions{}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := aig.RandomSignature(a, rand.New(rand.NewSource(6)), 4)
		if !aig.EqualSignatures(golden, got) {
			t.Fatalf("workers=%d: function changed", workers)
		}
		if a.NumAnds() > initial {
			t.Fatalf("workers=%d: area grew", workers)
		}
		t.Logf("workers=%d: %d -> %d (repl %d, stale %d)",
			workers, initial, a.NumAnds(), res.Replacements, res.Stale)
	}
}

func TestRunParallelComparableToSerial(t *testing.T) {
	a1 := bench.Sin(12)
	a2 := a1.Clone()
	rs := Run(a1, Config{})
	rp := RunParallel(a2, Config{}, 4)
	t.Logf("serial %d -> %d; parallel %d -> %d (stale %d)",
		rs.InitialAnds, rs.FinalAnds, rp.InitialAnds, rp.FinalAnds, rp.Stale)
	// The parallel variant trades a few stale plans for parallelism; its
	// quality must stay within 10% of serial refactoring.
	if float64(rp.AreaReduction()) < 0.9*float64(rs.AreaReduction()) {
		t.Fatalf("parallel refactoring lost too much quality: %d vs %d",
			rp.AreaReduction(), rs.AreaReduction())
	}
}
