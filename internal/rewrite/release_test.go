package rewrite

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"dacpara/internal/bench"
	"dacpara/internal/cut"
	"dacpara/internal/engine"
)

// TestDeadNodesHoldNoCutStorage: after a pass, the entry of every node the
// pass deleted holds no cut storage — each commit gave its dead nodes'
// sets back. dacpara releases in its serial commit, iccad18 inside
// activities that hold the dead nodes' locks.
func TestDeadNodesHoldNoCutStorage(t *testing.T) {
	lib := testLib(t)
	for _, tc := range []struct {
		eng     Engine
		workers int
	}{{EngineDACPara, 1}, {EngineDACPara, 2}, {EngineLockPar, 4}} {
		t.Run(fmt.Sprintf("%s/w%d", tc.eng, tc.workers), func(t *testing.T) {
			a := bench.MtM("m", 8000, 9)
			cfg := P2()
			cfg.Workers = tc.workers
			s := table[tc.eng]
			var pass engine.Pass[Candidate]
			var cm func() *cut.Manager
			if s.fused {
				p := &fusedPass{a: a, lib: lib, cfg: cfg, cascade: s.cascade}
				pass, cm = p, func() *cut.Manager { return p.cm }
			} else {
				p := &Pass{A: a, Lib: lib, Cfg: cfg}
				pass, cm = p, func() *cut.Manager { return p.cm }
			}
			if _, err := engine.Run(context.Background(), a, pass, s.plan, cfg.Exec()); err != nil {
				t.Fatal(err)
			}
			dead := 0
			for id := int32(0); id < a.Capacity(); id++ {
				if !a.N(id).IsDead() {
					continue
				}
				dead++
				if cm().Holds(id) {
					t.Fatalf("dead node %d still holds cut storage", id)
				}
			}
			if dead == 0 {
				t.Fatal("the pass deleted nothing")
			}
		})
	}
}

// TestSecondPassReusesCutStorage: one cut manager serves every pass of a
// run, so a second pass recomputes its sets into the storage the first
// left instead of allocating its own. A two-pass P1 run on the 32 k-AND
// MtM at one worker may allocate at most 1.25 times what a one-pass run
// does (about 1.09). A new manager per pass allocates about 1.9 times
// one pass, and 1.56 times when dead nodes also keep their sets.
func TestSecondPassReusesCutStorage(t *testing.T) {
	lib := testLib(t)
	src := bench.MtM("mtm32k", 32000, 1)
	allocated := func(passes int) uint64 {
		cfg := P1()
		cfg.Workers, cfg.Passes = 1, passes
		a := src.Clone()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		if _, err := Run(context.Background(), EngineDACPara, a, lib, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	one, two := allocated(1), allocated(2)
	ratio := float64(two) / float64(one)
	t.Logf("one pass %d B, two passes %d B: %.3f times", one, two, ratio)
	if ratio > 1.25 {
		t.Fatalf("a two-pass run allocates %.3f times a one-pass run, want at most 1.25", ratio)
	}
}
