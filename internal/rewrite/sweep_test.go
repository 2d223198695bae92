package rewrite

import (
	"context"
	"math/rand"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/metrics"
)

// TestOnlyReplacementTakesLocks is the paper's claim read off a run:
// dacpara at four workers on the deep arithmetic circuits — narrow levels
// over shared fanins, where a locking enumeration aborts most — traces no
// conflict, fails no lock and aborts nothing outside the replace phase,
// and the two lock-free phases still report their work and their share
// of the time between barriers.
func TestOnlyReplacementTakesLocks(t *testing.T) {
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
			if !aig.EqualSignatures(before, aig.RandomSignature(a, rand.New(rand.NewSource(7)), 4)) {
				t.Fatal("function changed")
			}
			snap := res.Metrics
			for _, cs := range snap.ConflictSamples {
				if cs.Phase != "replace" {
					t.Fatalf("conflict traced in the %s phase, on node %d", cs.Phase, cs.Node)
				}
			}
			if len(snap.Phases) != 3 {
				t.Fatalf("%d phase rows, want enumerate, evaluate and replace", len(snap.Phases))
			}
			for _, p := range snap.Phases[:2] {
				if p.WorkNs <= 0 || p.WallNs <= 0 || p.Intervals != snap.Phases[2].Intervals {
					t.Fatalf("phase %s: work %d ns, wall %d ns, %d intervals against %d replace phases",
						p.Name, p.WorkNs, p.WallNs, p.Intervals, snap.Phases[2].Intervals)
				}
				if p.Speculation != (metrics.Spec{CommittedNs: p.WorkNs}) {
					t.Fatalf("phase %s speculates: %+v", p.Name, p.Speculation)
				}
			}
			replace := snap.Phases[2].Speculation
			if replace.LockFailures != snap.Speculation.LockFailures || replace.Aborts != res.Aborts ||
				replace.Commits != int64(res.Attempts) {
				t.Fatalf("replace phase %+v; run totals %+v, %d attempts, %d aborts",
					replace, snap.Speculation, res.Attempts, res.Aborts)
			}
		})
	}
}
