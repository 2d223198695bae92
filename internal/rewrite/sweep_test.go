package rewrite

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/metrics"
)

// TestDACParaTakesNoLock reads the engine's commit rule off a run: dacpara
// at four workers on the deep arithmetic circuits — narrow levels over
// shared fanins, where the locked replace phase aborted two commits in
// three — takes no lock, fails none and aborts nothing in any phase. All
// three phases still report their work and wall time, and their work is
// all the run's committed work.
func TestDACParaTakesNoLock(t *testing.T) {
	lib := testLib(t)
	for name, a := range map[string]*aig.AIG{"div": bench.Divider(10), "sqrt": bench.Sqrt(16)} {
		t.Run(name, func(t *testing.T) {
			before := aig.RandomSignature(a, rand.New(rand.NewSource(7)), 4)
			m := metrics.New()
			m.TraceConflicts(1 << 16)
			res, err := Run(context.Background(), EngineDACPara, a, lib, Config{Workers: 4, Metrics: m})
			if err != nil {
				t.Fatal(err)
			}
			if res.Replacements == 0 {
				t.Fatal("nothing was replaced: the run says nothing about the replace phase")
			}
			if err := a.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(before, aig.RandomSignature(a, rand.New(rand.NewSource(7)), 4)) {
				t.Fatal("function changed")
			}
			snap := res.Metrics
			if len(snap.ConflictSamples) != 0 || res.Commits != 0 || res.Aborts != 0 {
				t.Fatalf("%d conflicts traced, %d executor commits, %d aborts", len(snap.ConflictSamples), res.Commits, res.Aborts)
			}
			if len(snap.Phases) != 3 {
				t.Fatalf("%d phase rows, want enumerate, evaluate and replace", len(snap.Phases))
			}
			// The sweep's work is summed over the workers; the replace
			// phase has one, so its work fits in its wall.
			var work int64
			for _, p := range snap.Phases {
				if p.WorkNs <= 0 || p.WallNs <= 0 || p.Intervals != snap.Phases[2].Intervals ||
					p.Name == "replace" && p.WorkNs > p.WallNs {
					t.Fatalf("phase %s: work %d ns, wall %d ns, %d intervals against %d replace phases",
						p.Name, p.WorkNs, p.WallNs, p.Intervals, snap.Phases[2].Intervals)
				}
				if p.Speculation != (metrics.Spec{CommittedNs: p.WorkNs}) {
					t.Fatalf("phase %s speculates: %+v", p.Name, p.Speculation)
				}
				work += p.WorkNs
			}
			if res.CommittedWork.Nanoseconds() != work || res.WastedWork != 0 {
				t.Fatalf("committed work %v, wasted %v; the phases worked %d ns", res.CommittedWork, res.WastedWork, work)
			}
		})
	}
}
