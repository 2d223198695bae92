package cec_test

import (
	"context"
	"testing"

	"dacpara"
	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/cec"
)

// verifiedFlow is the script of the benchmark's flow_verified workload.
const verifiedFlow = "b; rw; rf -p; b; rw; rw -z; b; rs -p; rw -z; b"

type pair struct {
	name string
	a, b *aig.AIG
}

// flowVerifiedPairs returns the twelve equivalent pairs the benchmark's
// flow_verified operation proves: every circuit, read from binary AIGER
// as the benchmark's inputs are, against its flow output and against its
// one-pass dacpara rewrite, both on one worker.
func flowVerifiedPairs(tb testing.TB) []pair {
	tb.Helper()
	var pairs []pair
	names := []string{"sin", "voter", "sqrt", "log2", "mem_ctrl", "mtm"}
	for i, c := range bench.FlowVerified() {
		golden := viaAIGER(tb, c)
		run, err := dacpara.Run(context.Background(), viaAIGER(tb, c), dacpara.Job{Flow: verifiedFlow, Workers: 1}, dacpara.Hooks{})
		if err != nil {
			tb.Fatal(err)
		}
		out := run.Net
		one := onePass(tb, viaAIGER(tb, c))
		pairs = append(pairs, pair{names[i] + " flow", golden, out}, pair{names[i] + " rewrite", golden, one})
	}
	return pairs
}

// pinnedEffort is each proof's pairs, merges, structural hits, SAT calls,
// SAT answers, conflicts, decisions and propagations, recorded before the
// solver's storage was rebuilt (EXPERIMENTS.md E19): a change of layout
// that is not a change of search leaves every one of them where it is.
// The seven rows whose rewritten side changed when every pass began by
// deleting the logic no output reaches were recorded then (E28).
var pinnedEffort = map[string][8]int64{
	"sin flow":         {404, 404, 485, 808, 0, 661, 193, 73875},
	"sin rewrite":      {386, 386, 652, 772, 0, 611, 185, 59060},
	"voter flow":       {90, 87, 98, 180, 3, 239, 231, 5479},
	"voter rewrite":    {88, 86, 119, 176, 2, 237, 178, 4647},
	"sqrt flow":        {113, 113, 460, 226, 0, 529, 834, 33867},
	"sqrt rewrite":     {116, 116, 571, 232, 0, 529, 768, 32243},
	"log2 flow":        {306, 305, 426, 612, 1, 1232, 1455, 96309},
	"log2 rewrite":     {277, 276, 509, 554, 1, 1177, 1270, 78858},
	"mem_ctrl flow":    {159, 125, 411, 304, 34, 349, 1391, 31907},
	"mem_ctrl rewrite": {111, 86, 570, 212, 25, 264, 959, 15624},
	"mtm flow":         {202, 151, 415, 376, 51, 475, 3982, 72107},
	"mtm rewrite":      {150, 109, 605, 277, 41, 378, 3460, 54450},
}

// TestSweepEffort holds the twelve proofs of one flow_verified operation
// to the counts in pinnedEffort, and their sums to ceilings. They sit
// where the checker's cost does: a SAT answer is the expensive call, and
// what keeps it cheap (solving inside the cone) and rare (counterexample
// feedback, the constant in the class table) shows as propagations, SAT
// answers and output-stage calls. The measured values are in
// EXPERIMENTS.md E10; a return to one full assignment per SAT answer
// multiplies propagations by about three.
func TestSweepEffort(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var sum cec.Effort
	var outputCalls int64
	for _, p := range flowVerifiedPairs(t) {
		res, err := cec.Check(p.a, p.b, cec.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if !res.Equivalent || !res.Proved {
			t.Errorf("%s: equivalent=%v proved=%v", p.name, res.Equivalent, res.Proved)
		}
		t.Logf("%-16s pairs %4d merges %4d hits %5d calls %4d answers %3d conflicts %5d decisions %6d propagations %7d output calls %d",
			p.name, res.Pairs, res.Merges, res.StructuralHits, res.SATCalls, res.SATAnswers,
			res.SATConflicts, res.Decisions, res.Propagations, res.OutputSATCalls)
		got := [8]int64{int64(res.Pairs), int64(res.Merges), int64(res.StructuralHits), res.SATCalls, res.SATAnswers,
			res.SATConflicts, res.Decisions, res.Propagations}
		if got != pinnedEffort[p.name] {
			t.Errorf("%s: effort %v, pinned %v", p.name, got, pinnedEffort[p.name])
		}
		sum.Pairs += res.Pairs
		sum.Merges += res.Merges
		sum.StructuralHits += res.StructuralHits
		sum.SATCalls += res.SATCalls
		sum.SATAnswers += res.SATAnswers
		sum.SATConflicts += res.SATConflicts
		sum.Decisions += res.Decisions
		sum.Propagations += res.Propagations
		outputCalls += res.OutputSATCalls
	}
	t.Logf("total: %+v, output-stage SAT calls %d", sum, outputCalls)
	for _, c := range []struct {
		name       string
		got, limit int64
	}{
		{"candidate pairs", int64(sum.Pairs), 3500},
		{"SAT calls", sum.SATCalls, 6500},
		{"SAT answers", sum.SATAnswers, 300},
		{"decisions", sum.Decisions, 40_000},
		{"propagations", sum.Propagations, 1_000_000},
		{"conflicts", sum.SATConflicts, 9000},
		{"output-stage SAT calls", outputCalls, 0},
	} {
		if c.got > c.limit {
			t.Errorf("%s: %d, ceiling %d", c.name, c.got, c.limit)
		}
	}
}

// BenchmarkCheck proves the twelve pairs of one flow_verified operation.
func BenchmarkCheck(b *testing.B) {
	pairs := flowVerifiedPairs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conflicts := int64(0)
		for _, p := range pairs {
			res, err := cec.Check(p.a, p.b, cec.Options{})
			if err != nil || !res.Equivalent || !res.Proved {
				b.Fatalf("%s: %+v, %v", p.name, res, err)
			}
			conflicts += res.SATConflicts
		}
		b.ReportMetric(float64(conflicts), "conflicts/op")
	}
}
