package rewrite

import (
	"context"
	"runtime"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/cut"
)

// TestEvaluateMatchesReference holds the kernel to the evaluator it
// replaced node by node: for every AND of the tiny suite and of the
// flow_verified circuits, under every configuration that changes what
// evaluation sees, the two must return the same candidate — kind, cut,
// class, structure index, gain and the wire and constant fields. This
// pins the tie-breaks the budget and the memo must not disturb where a
// digest of the rewritten circuit would only say that something moved.
func TestEvaluateMatchesReference(t *testing.T) {
	lib := testLib(t)
	var nets []*aig.AIG
	for _, c := range bench.Suite(bench.ScaleTiny) {
		nets = append(nets, c.Instantiate(bench.ScaleTiny))
	}
	nets = append(nets, bench.FlowVerified()...)
	p1 := P1()
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"P1", p1},
		{"zero-gain", Config{ZeroGain: true}},
		{"preserve-delay", Config{PreserveDelay: true}},
		{"k=5", Config{K: 5}},
	}
	for _, tc := range configs {
		t.Run(tc.name, func(t *testing.T) {
			set := nets
			if testing.Short() {
				set = bench.FlowVerified()
			}
			for _, a := range set {
				cm := cut.NewManager(a, cut.Params{K: tc.cfg.K, MaxCuts: tc.cfg.MaxCuts})
				ev := NewEvaluator(a, lib, tc.cfg)
				ref := &refScratch{delta: map[int32]int32{}}
				a.ForEachAnd(func(id int32) {
					cuts := ensured(cm, id)
					got, want := ev.Evaluate(id, cuts), refEvaluate(ev, ref, id, cuts)
					if got != want {
						t.Fatalf("%s node %d:\n got %+v\nwant %+v", a.Name, id, got, want)
					}
				})
			}
		})
	}
}

// TestEvaluateWarmZeroAlloc: once the scratch has met the largest cone and
// structure of a graph, evaluating its nodes again — those that yield a
// candidate and those that do not — allocates nothing, and neither does
// reading their sets through a pool, as the pass does.
func TestEvaluateWarmZeroAlloc(t *testing.T) {
	lib := testLib(t)
	for _, a := range bench.KernelSet() {
		cm := cut.NewManager(a, cut.Params{})
		a.ForEachAnd(func(id int32) { cm.Ensure(id, nil) })
		pool := cut.NewPool()
		ev := NewEvaluator(a, lib, P2())
		found, none := 0, 0
		sweep := func() {
			a.ForEachAnd(func(id int32) {
				cuts, _ := cm.CutsP(id, pool)
				if cand := ev.Evaluate(id, cuts); cand.Ok() {
					found++
				} else {
					none++
				}
			})
		}
		sweep()
		if found == 0 || none == 0 {
			t.Fatalf("%s: %d nodes with a candidate, %d without; the gate needs both", a.Name, found, none)
		}
		if avg := testing.AllocsPerRun(3, sweep); avg != 0 {
			t.Errorf("%s: %v allocs per warm sweep, want 0", a.Name, avg)
		}
	}
}

// BenchmarkEvaluateSet is the lock-free evaluation of every AND of the
// kernel set against fully enumerated cut sets, P2 configuration.
func BenchmarkEvaluateSet(b *testing.B) {
	lib := testLib(b)
	set := bench.KernelSet()
	cms := make([]*cut.Manager, len(set))
	evs := make([]*Evaluator, len(set))
	for k, a := range set {
		cms[k] = cut.NewManager(a, cut.Params{})
		evs[k] = NewEvaluator(a, lib, P2())
		a.ForEachAnd(func(id int32) { cms[k].Ensure(id, nil) })
	}
	found := 0
	pool := cut.NewPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, a := range set {
			a.ForEachAnd(func(id int32) {
				cuts, _ := cms[k].CutsP(id, pool)
				if cand := evs[k].Evaluate(id, cuts); cand.Ok() {
					found++
				}
			})
		}
	}
	b.ReportMetric(float64(found)/float64(b.N), "candidates/op")
}

// TestDACParaPassAllocs holds a cold dacpara P2 pass — a fresh graph, a
// fresh cut table — over the 32 k-AND MtM at one worker to half an
// allocation per AND of its input. Cut sets are carved from per-worker
// chunks, so a pass allocates per chunk and per level, not per node; a
// change that goes back to one allocation per stored set shows here as
// about three times the bound. The bench-smoke CI job runs this test as
// an allocation gate.
func TestDACParaPassAllocs(t *testing.T) {
	lib := testLib(t)
	src := bench.MtM("mtm32k", 32000, 1)
	cfg := P2()
	cfg.Workers = 1
	a := src.Clone()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	if _, err := Run(context.Background(), EngineDACPara, a, lib, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	perAnd := float64(ms.Mallocs-before) / float64(src.NumAnds())
	t.Logf("%d allocations, %.3f per AND", ms.Mallocs-before, perAnd)
	if perAnd > 0.5 {
		t.Fatalf("a cold dacpara pass makes %.3f allocations per AND, want at most 0.5", perAnd)
	}
}

// TestDACParaPassBytes holds the same cold pass to 260 bytes of heap
// allocated per AND of its input. Stored cuts are packed (24 bytes at
// k = 4, against 48 for the working Cut), and commits give the cut sets
// of the nodes they delete back and the next sweep enumerates into them,
// which keeps the pass near 245 B/AND. Unpacked storage reads about 393,
// and without the release about 625. The bench-smoke CI job runs this
// test as an allocation gate.
func TestDACParaPassBytes(t *testing.T) {
	lib := testLib(t)
	src := bench.MtM("mtm32k", 32000, 1)
	cfg := P2()
	cfg.Workers = 1
	a := src.Clone()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if _, err := Run(context.Background(), EngineDACPara, a, lib, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	perAnd := float64(ms.TotalAlloc-before) / float64(src.NumAnds())
	t.Logf("%d bytes, %.1f per AND", ms.TotalAlloc-before, perAnd)
	if perAnd > 260 {
		t.Fatalf("a cold dacpara pass allocates %.1f bytes per AND, want at most 260", perAnd)
	}
}

// BenchmarkDACParaPass is one dacpara P2 pass over a 32 k-AND MtM circuit
// on one worker. B/AND is the heap the pass allocates per AND of its
// input: what a candidate store sized by the graph would show first.
func BenchmarkDACParaPass(b *testing.B) {
	lib := testLib(b)
	src := bench.MtM("mtm32k", 32000, 1)
	cfg := P2()
	cfg.Workers = 1
	var ms runtime.MemStats
	var allocated uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := src.Clone()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		b.StartTimer()
		if _, err := Run(context.Background(), EngineDACPara, a, lib, cfg); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		allocated += ms.TotalAlloc - before
		b.StartTimer()
	}
	b.ReportMetric(float64(allocated)/float64(b.N)/float64(src.NumAnds()), "B/AND")
}
