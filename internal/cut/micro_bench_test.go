package cut

import (
	"fmt"
	"math/rand"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
)

func BenchmarkEnumerate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomAIG(rng, 16, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewManager(a, Params{})
		a.ForEachAnd(func(id int32) { m.Ensure(id, nil) })
	}
	b.ReportMetric(float64(a.NumAnds()), "gates")
}

func BenchmarkEnumerateP1Budget(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randomAIG(rng, 16, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewManager(a, Params{MaxCuts: 8})
		a.ForEachAnd(func(id int32) { m.Ensure(id, nil) })
	}
}

// BenchmarkEnumerateSet is cold cut enumeration, warm pool, of every AND
// of the kernel set at the default width and budget.
func BenchmarkEnumerateSet(b *testing.B) {
	set := bench.KernelSet()
	pool := NewPool()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range set {
			m := NewManager(a, Params{})
			a.ForEachAnd(func(id int32) { m.EnsureP(id, nil, pool) })
		}
	}
}

// chainAIG builds a maximally deep AND chain: every gate merges the cut
// set of the previous gate with a fresh PI, the worst case for cut-set
// depth with the smallest possible width.
func chainAIG(gates int) *aig.AIG {
	a := aig.New()
	acc := a.AddPI()
	for i := 0; i < gates; i++ {
		acc = a.And(acc, a.AddPI())
	}
	a.AddPO(acc)
	return a
}

// balancedAIG builds a complete AND tree over 2^depth PIs: merges at
// every level see two equally rich fanin cut sets.
func balancedAIG(depth int) *aig.AIG {
	a := aig.New()
	level := make([]aig.Lit, 1<<uint(depth))
	for i := range level {
		level[i] = a.AddPI()
	}
	for len(level) > 1 {
		next := level[: len(level)/2 : len(level)/2]
		for i := range next {
			next[i] = a.And(level[2*i], level[2*i+1])
		}
		level = next
	}
	a.AddPO(level[0])
	return a
}

// faninShapes is the enumeration workload matrix: a deep chain, a
// balanced tree, and a reconvergent random graph cover the fanin shapes
// that drive the merge loop differently (set depth, set richness, and
// shared-leaf reconvergence respectively).
var faninShapes = []struct {
	name  string
	build func() *aig.AIG
}{
	{"chain", func() *aig.AIG { return chainAIG(4096) }},
	{"balanced", func() *aig.AIG { return balancedAIG(12) }},
	{"reconvergent", func() *aig.AIG { return randomAIG(rand.New(rand.NewSource(2)), 16, 4096) }},
}

// BenchmarkEnsure measures cold full-graph enumeration per shape —
// the cost the enumerate phase pays on a node's first visit.
func BenchmarkEnsure(b *testing.B) {
	for _, shape := range faninShapes {
		b.Run(shape.name, func(b *testing.B) {
			a := shape.build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := NewManager(a, Params{})
				a.ForEachAnd(func(id int32) { m.Ensure(id, nil) })
			}
			b.ReportMetric(float64(a.NumAnds()), "gates")
		})
	}
}

// BenchmarkEnsureWarm measures the cache-hit path: everything already
// enumerated for the current incarnation, so Ensure reduces to the
// version check the replacement phase leans on.
func BenchmarkEnsureWarm(b *testing.B) {
	for _, shape := range faninShapes {
		b.Run(shape.name, func(b *testing.B) {
			a := shape.build()
			m := NewManager(a, Params{})
			a.ForEachAnd(func(id int32) { m.Ensure(id, nil) })
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.ForEachAnd(func(id int32) { m.Ensure(id, nil) })
			}
		})
	}
}

// BenchmarkRefresh measures the paper's re-enumeration step: the stored
// set of a deep node is invalidated and recomputed against warm fanin
// sets, the cost paid whenever replacement finds a result outdated.
func BenchmarkRefresh(b *testing.B) {
	for _, shape := range faninShapes {
		b.Run(shape.name, func(b *testing.B) {
			a := shape.build()
			m := NewManager(a, Params{})
			a.ForEachAnd(func(id int32) { m.Ensure(id, nil) })
			root := a.POs()[0].Node()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.RefreshP(root, nil, nil)
			}
		})
	}
}

// BenchmarkMergeCuts measures the pairwise merge kernel itself — leaf
// union with the signature quick-reject, then the function of the union —
// over the fanin cut-set pairs of a reconvergent graph, at each width:
// unions of up to 4, 5 and 6 leaves.
func BenchmarkMergeCuts(b *testing.B) {
	a := randomAIG(rand.New(rand.NewSource(3)), 16, 2000)
	for _, k := range ks {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			m := NewManager(a, Params{K: k})
			a.ForEachAnd(func(id int32) { m.Ensure(id, nil) })
			type pair struct {
				s0, s1 []Cut
				n0, n1 bool
			}
			var pairs []pair
			a.ForEachAnd(func(id int32) {
				if len(pairs) >= 256 {
					return
				}
				n := a.N(id)
				s0, ok0 := m.Cuts(n.Fanin0().Node())
				s1, ok1 := m.Cuts(n.Fanin1().Node())
				if ok0 && ok1 {
					pairs = append(pairs, pair{s0, s1, n.Fanin0().Compl(), n.Fanin1().Compl()})
				}
			})
			merges := 0
			for _, p := range pairs {
				merges += len(p.s0) * len(p.s1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range pairs {
					for x := range p.s0 {
						for y := range p.s1 {
							mergeCuts(&p.s0[x], &p.s1[y], p.n0, p.n1, k)
						}
					}
				}
			}
			b.ReportMetric(float64(merges), "merges/op")
		})
	}
}
