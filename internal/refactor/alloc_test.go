package refactor

import (
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/engine"
)

// TestLargeConeWarmZeroAlloc is the allocation gate of the large-cone
// kernel: once a worker's scratch has seen the graph, evaluating a node
// that stores no plan — window, cone function, both covers, both factored
// forms, the gain count — allocates nothing.
func TestLargeConeWarmZeroAlloc(t *testing.T) {
	a := bench.MemCtrl(1500, 5)
	p := &refactorPass{a: a, cfg: Config{}}
	p.Begin(2, engine.Env{})
	var noGain []int32
	a.ForEachAnd(func(id int32) {
		if p.Evaluate(1, id); !p.Stored(id) {
			noGain = append(noGain, id)
		}
	})
	if len(noGain) < 100 {
		t.Fatalf("only %d nodes without a plan", len(noGain))
	}
	n := testing.AllocsPerRun(3, func() {
		for _, id := range noGain {
			p.Evaluate(1, id)
		}
	})
	if n != 0 {
		t.Fatalf("%v allocations per warm sweep of %d no-gain nodes", n, len(noGain))
	}
}

// BenchmarkRefactorSet is `rf` on one worker over the six circuits of
// the repository benchmark's flow_verified workload.
func BenchmarkRefactorSet(b *testing.B) {
	set := bench.FlowVerified()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nets := make([]*aig.AIG, len(set))
		for k, a := range set {
			nets[k] = a.Clone()
		}
		b.StartTimer()
		for _, a := range nets {
			run(a, Config{}, 1)
		}
	}
}
