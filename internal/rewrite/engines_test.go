package rewrite_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/npn"
	"dacpara/internal/rewlib"
	"dacpara/internal/rewrite"
)

func randomAIG(t testing.TB, rng *rand.Rand, pis, gates, pos int) *aig.AIG {
	t.Helper()
	a := aig.New()
	lits := make([]aig.Lit, 0, pis+gates)
	for i := 0; i < pis; i++ {
		lits = append(lits, a.AddPI())
	}
	for len(lits) < pis+gates {
		x := lits[rng.Intn(len(lits))].XorCompl(rng.Intn(2) == 0)
		y := lits[rng.Intn(len(lits))].XorCompl(rng.Intn(2) == 0)
		var l aig.Lit
		switch rng.Intn(4) {
		case 0:
			l = a.And(x, y)
		case 1:
			l = a.Or(x, y)
		case 2:
			l = a.Xor(x, y)
		default:
			l = a.Mux(x, y, lits[rng.Intn(len(lits))])
		}
		if !l.IsConst() {
			lits = append(lits, l)
		}
	}
	for i := 0; i < pos; i++ {
		a.AddPO(lits[len(lits)-1-i%len(lits)].XorCompl(rng.Intn(2) == 0))
	}
	return a
}

func lib(t testing.TB) *rewlib.Library {
	t.Helper()
	l, err := rewlib.Build(npn.Shared(), rewlib.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

type engineFn func(*aig.AIG, *rewlib.Library, rewrite.Config) (rewrite.Result, error)

// run binds one row of the engine table to the (network, library,
// config) shape these tests drive.
func run(eng rewrite.Engine) engineFn {
	return func(a *aig.AIG, l *rewlib.Library, c rewrite.Config) (rewrite.Result, error) {
		return rewrite.Run(context.Background(), eng, a, l, c)
	}
}

type namedEngine struct {
	name string
	run  engineFn
}

// checkOptions holds the engine's result to strash uniqueness unless it
// may leave two ANDs on one fanin pair: dacpara and iccad18 do not merge
// the fanouts a replacement makes equal (EXPERIMENTS.md E18); dac22 and
// tcad23 do.
func (e namedEngine) checkOptions() aig.CheckOptions {
	return aig.CheckOptions{AllowDuplicates: e.name == "dacpara" || e.name == "lockpar"}
}

var engines = []namedEngine{
	{"dacpara", run(rewrite.EngineDACPara)},
	{"lockpar", run(rewrite.EngineLockPar)},
	{"staticpar-dac22", run(rewrite.EngineStaticDAC22)},
	{"staticpar-tcad23", run(rewrite.EngineStaticTCAD23)},
}

// must unwraps an engine result, failing the test on an engine error.
func must(t testing.TB) func(rewrite.Result, error) rewrite.Result {
	return func(res rewrite.Result, err error) rewrite.Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

func TestParallelEnginesPreserveFunction(t *testing.T) {
	l := lib(t)
	for _, eng := range engines {
		eng := eng
		t.Run(eng.name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				a := randomAIG(t, rng, 10, 1500, 16)
				before := aig.RandomSignature(a, rand.New(rand.NewSource(7)), 4)
				initial := a.NumAnds()
				res := must(t)(eng.run(a, l, rewrite.Config{Workers: 8}))
				if err := a.Check(eng.checkOptions()); err != nil {
					t.Fatalf("seed %d: invariants: %v", seed, err)
				}
				after := aig.RandomSignature(a, rand.New(rand.NewSource(7)), 4)
				if !slices.Equal(before, after) {
					t.Fatalf("seed %d: function changed", seed)
				}
				t.Logf("seed %d: %d -> %d ands (repl=%d stale=%d commits=%d aborts=%d)",
					seed, initial, a.NumAnds(), res.Replacements, res.Stale, res.Commits, res.Aborts)
			}
		})
	}
}
