package dacpara

import (
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/lutmap"
)

// TestFullPipelineOverSuite drives the complete stack on every benchmark
// of the tiny suite: generate → DACPara rewrite → LUT mapping →
// simulation equivalence. This is the end-to-end integration test of the
// repository.
func TestFullPipelineOverSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range BenchmarkNames(ScaleTiny) {
		name := name
		t.Run(name, func(t *testing.T) {
			net, err := Generate(name, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			golden := net.Clone()
			res, err := Rewrite(net, EngineDACPara, Config{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
				t.Fatal(err)
			}
			if res.AreaReduction() < 0 {
				t.Fatalf("area grew by %d", -res.AreaReduction())
			}
			sg := aig.RandomSignature(golden, rand.New(rand.NewSource(9)), 4)
			sn := aig.RandomSignature(net, rand.New(rand.NewSource(9)), 4)
			if !slices.Equal(sg, sn) {
				t.Fatal("rewriting changed the function")
			}
			m, err := lutmap.Map(net, 6)
			if err != nil {
				t.Fatal(err)
			}
			if m.Area <= 0 || m.Depth <= 0 {
				t.Fatalf("degenerate mapping %+v", m)
			}
			t.Logf("%s: %d -> %d ands, %d LUT6 depth %d",
				name, res.InitialAnds, res.FinalAnds, m.Area, m.Depth)
		})
	}
}
