package metrics_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"dacpara/internal/aig"
	"dacpara/internal/metrics"
	"dacpara/internal/npn"
	"dacpara/internal/rewlib"
	"dacpara/internal/rewrite"
)

func overheadAIG(rng *rand.Rand, pis, gates int) *aig.AIG {
	a := aig.New()
	lits := make([]aig.Lit, 0, pis+gates)
	for i := 0; i < pis; i++ {
		lits = append(lits, a.AddPI())
	}
	for len(lits) < pis+gates {
		x := lits[rng.Intn(len(lits))].XorCompl(rng.Intn(2) == 0)
		y := lits[rng.Intn(len(lits))].XorCompl(rng.Intn(2) == 0)
		var l aig.Lit
		switch rng.Intn(3) {
		case 0:
			l = a.And(x, y)
		case 1:
			l = a.Or(x, y)
		default:
			l = a.Xor(x, y)
		}
		if !l.IsConst() {
			lits = append(lits, l)
		}
	}
	for i := 0; i < 4; i++ {
		a.AddPO(lits[len(lits)-1-i])
	}
	return a
}

// TestInstrumentationOverheadBudget is the tentpole's cost contract: a
// fully instrumented dacpara run must stay close to the metrics-off
// baseline, because the hot paths only ever touch their own shard. The
// budget is deliberately loose (2.5x plus absolute slack) so scheduler
// noise on shared CI machines cannot flake it, while a pathological
// regression — a lock or an allocation on the per-node path — still
// trips it.
func TestInstrumentationOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	lib, err := rewlib.Build(npn.Shared(), rewlib.Params{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(m *metrics.Collector) time.Duration {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			a := overheadAIG(rand.New(rand.NewSource(7)), 12, 4000)
			start := time.Now()
			if _, err := rewrite.Run(context.Background(), rewrite.EngineDACPara, a, lib, rewrite.Config{Workers: 2, Metrics: m}); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	// Warm up shared state (library pages, allocator) outside the timing.
	run(metrics.Nop)
	base := run(metrics.Nop)
	inst := run(metrics.New())
	budget := base*5/2 + 100*time.Millisecond
	t.Logf("baseline %v, instrumented %v, budget %v", base, inst, budget)
	if inst > budget {
		t.Fatalf("instrumented run %v exceeds budget %v (baseline %v)", inst, budget, base)
	}
}
