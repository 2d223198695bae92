package dacpara

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Custom metrics carry the paper's quality
// columns: area-reduction (AND gates removed), final delay, abort counts
// and wasted speculative work. Run with:
//
//	go test -bench=. -benchmem
//
// Set -benchtime=1x for a single sweep per data point; the scale defaults
// to the tiny suite so the full harness finishes in minutes (see
// EXPERIMENTS.md for small/full-scale runs via cmd/exptables).

import (
	"context"
	"os"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/rewrite"
)

// benchScale picks the generated benchmark sizes; override with
// DACPARA_BENCH_SCALE=small or =full.
func benchScale() bench.Scale {
	switch os.Getenv("DACPARA_BENCH_SCALE") {
	case "small":
		return bench.ScaleSmall
	case "full":
		return bench.ScaleFull
	}
	return bench.ScaleTiny
}

func benchLib(b *testing.B) *Library {
	b.Helper()
	lib, err := DefaultLibrary()
	if err != nil {
		b.Fatal(err)
	}
	return lib
}

// must unwraps an engine result; engine errors cannot occur here (no
// fault plan, default retry budget) so any error is a harness bug.
func must(res rewrite.Result, err error) rewrite.Result {
	if err != nil {
		panic(err)
	}
	return res
}

// engineRun is one benchmarked column: an engine-table row and its
// configuration.
type engineRun struct {
	name string
	eng  Engine
	cfg  Config
}

func (e engineRun) run(a *aig.AIG, lib *Library) (rewrite.Result, error) {
	return rewrite.Run(context.Background(), e.eng, a, lib, e.cfg)
}

func reportResult(b *testing.B, res rewrite.Result) {
	b.ReportMetric(float64(res.AreaReduction()), "area-red")
	b.ReportMetric(float64(res.FinalDelay), "delay")
	b.ReportMetric(float64(res.Aborts), "aborts")
	b.ReportMetric(100*res.WastedFraction(), "wasted-%")
}

// BenchmarkTable1_Generate regenerates the benchmark suite (Table 1's
// rows); the metric columns carry the circuit statistics.
func BenchmarkTable1_Generate(b *testing.B) {
	sc := benchScale()
	for _, c := range bench.Suite(sc) {
		c := c
		b.Run(c.Name, func(b *testing.B) {
			var st aig.Stats
			for i := 0; i < b.N; i++ {
				st = c.Instantiate(sc).Stats()
			}
			b.ReportMetric(float64(st.Ands), "area")
			b.ReportMetric(float64(st.Delay), "delay")
			b.ReportMetric(float64(st.PIs), "pis")
			b.ReportMetric(float64(st.POs), "pos")
		})
	}
}

// BenchmarkTable2 reproduces Table 2: serial ABC rewriting, the fused-
// operator ICCAD'18 engine and DACPara over the whole suite, reporting
// runtime (ns/op), area reduction and final delay per circuit.
func BenchmarkTable2(b *testing.B) {
	sc := benchScale()
	lib := benchLib(b)
	engines := []engineRun{
		{"abc", EngineSerial, Config{}},
		{"iccad18", EngineLockPar, Config{}},
		{"dacpara", EngineDACPara, Config{}},
	}
	for _, c := range bench.Suite(sc) {
		for _, e := range engines {
			c, e := c, e
			b.Run(c.Name+"/"+e.name, func(b *testing.B) {
				var res rewrite.Result
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					a := c.Instantiate(sc)
					b.StartTimer()
					res = must(e.run(a, lib))
				}
				reportResult(b, res)
			})
		}
	}
}

// BenchmarkTable3 reproduces Table 3 on the MtM set: ICCAD'18, the CPU
// models of the DAC'22/TCAD'23 GPU methods, and DACPara under the P1 and
// P2 parameterizations.
func BenchmarkTable3(b *testing.B) {
	sc := benchScale()
	lib := benchLib(b)
	drwCfg := rewrite.Config{MaxCuts: 8, MaxStructs: 5, NumClasses: 222, Passes: 2}
	engines := []engineRun{
		{"iccad18", EngineLockPar, Config{}},
		{"dac22", EngineStaticDAC22, drwCfg},
		{"tcad23", EngineStaticTCAD23, drwCfg},
		{"dacpara-p1", EngineDACPara, P1()},
		{"dacpara-p2", EngineDACPara, P2()},
	}
	for _, c := range bench.MtMSet(sc) {
		for _, e := range engines {
			c, e := c, e
			b.Run(c.Name+"/"+e.name, func(b *testing.B) {
				var res rewrite.Result
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					a := c.Instantiate(sc)
					b.StartTimer()
					res = must(e.run(a, lib))
				}
				reportResult(b, res)
			})
		}
	}
}

// BenchmarkFig2Conflicts reproduces the Fig. 2 experiment: the fraction
// of speculative work wasted by lock conflicts under the fused operator
// versus DACPara's split operators.
func BenchmarkFig2Conflicts(b *testing.B) {
	sc := benchScale()
	lib := benchLib(b)
	c, ok := findSuiteCircuit(sc, "mult")
	if !ok {
		b.Skip("mult missing from suite")
	}
	for _, e := range []struct {
		name  string
		fused bool
	}{{"iccad18-fused", true}, {"dacpara-split", false}} {
		e := e
		b.Run(e.name, func(b *testing.B) {
			var res rewrite.Result
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := c.Instantiate(sc)
				b.StartTimer()
				if e.fused {
					res = must(rewrite.Run(context.Background(), EngineLockPar, a, lib, rewrite.Config{Workers: 8}))
				} else {
					res = must(rewrite.Run(context.Background(), EngineDACPara, a, lib, rewrite.Config{Workers: 8}))
				}
			}
			reportResult(b, res)
		})
	}
}

// BenchmarkThreadScaling sweeps worker counts for the two parallel
// engines (the speedup columns of Table 2; requires a many-core machine
// for wall-clock effects).
func BenchmarkThreadScaling(b *testing.B) {
	sc := benchScale()
	lib := benchLib(b)
	c, ok := findSuiteCircuit(sc, "mult")
	if !ok {
		b.Skip("mult missing from suite")
	}
	for _, th := range []int{1, 2, 4, 8} {
		th := th
		b.Run(engineThreads("dacpara", th), func(b *testing.B) {
			var res rewrite.Result
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := c.Instantiate(sc)
				b.StartTimer()
				res = must(rewrite.Run(context.Background(), EngineDACPara, a, lib, rewrite.Config{Workers: th}))
			}
			reportResult(b, res)
		})
		b.Run(engineThreads("iccad18", th), func(b *testing.B) {
			var res rewrite.Result
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := c.Instantiate(sc)
				b.StartTimer()
				res = must(rewrite.Run(context.Background(), EngineLockPar, a, lib, rewrite.Config{Workers: th}))
			}
			reportResult(b, res)
		})
	}
}

// BenchmarkAblationNoLevels compares DACPara's level lists against a flat
// worklist (the nodeDividing ablation of DESIGN.md).
func BenchmarkAblationNoLevels(b *testing.B) {
	sc := benchScale()
	lib := benchLib(b)
	c, ok := findSuiteCircuit(sc, "sin")
	if !ok {
		b.Skip("sin missing from suite")
	}
	for _, e := range []struct {
		name string
		flat bool
	}{{"level-lists", false}, {"flat-worklist", true}} {
		e := e
		b.Run(e.name, func(b *testing.B) {
			var res rewrite.Result
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := c.Instantiate(sc)
				b.StartTimer()
				if e.flat {
					res = must(rewrite.Run(context.Background(), rewrite.EngineFlat, a, lib, rewrite.Config{Workers: 8}))
				} else {
					res = must(rewrite.Run(context.Background(), EngineDACPara, a, lib, rewrite.Config{Workers: 8}))
				}
			}
			reportResult(b, res)
			b.ReportMetric(float64(res.Stale), "stale")
		})
	}
}

// BenchmarkEquivalenceCheck measures the verification substrate the
// paper's Section 5.2 relies on ("the rewritten circuits all passed the
// equivalence check").
func BenchmarkEquivalenceCheck(b *testing.B) {
	sc := benchScale()
	lib := benchLib(b)
	c, ok := findSuiteCircuit(sc, "sin")
	if !ok {
		b.Skip("sin missing from suite")
	}
	a := c.Instantiate(sc)
	golden := a.Clone()
	must(rewrite.Run(context.Background(), EngineDACPara, a, lib, rewrite.Config{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(golden, a, 0); err != nil {
			b.Fatalf("equivalence check failed: %v", err)
		}
	}
}

func engineThreads(engine string, th int) string {
	return engine + "-" + string(rune('0'+th)) + "t"
}

func findSuiteCircuit(sc bench.Scale, base string) (bench.Circuit, bool) {
	for _, c := range bench.Suite(sc) {
		if c.Name == base || (len(c.Name) > len(base) && c.Name[:len(base)] == base && c.Name[len(base)] == '_') {
			return c, true
		}
	}
	return bench.Circuit{}, false
}
