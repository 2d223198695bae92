// Package dacpara is a Go implementation of DACPara — "A Divide-and-
// Conquer Parallel Approach for High-Quality Logic Rewriting in
// Large-Scale Circuits" (Qu, Tian, Duan; DAC 2024) — together with every
// substrate the paper builds on: an AIG package with structural hashing
// and functionally-safe replacement, k-input cut enumeration (k = 4..6)
// over one 64-bit truth-table algebra, NPN classification, a rewriting
// structure library synthesized by one builder for every cut width, a
// Galois-style speculative parallel executor, the serial ABC `rewrite`
// baseline, the ICCAD'18 fused-lock parallel baseline, CPU models of the
// DAC'22/TCAD'23 GPU rewriters, a CDCL SAT solver with combinational
// equivalence checking, and generators for the EPFL-style benchmark suite
// of the paper's Table 1.
//
// This package is the facade: load or generate a network, describe what
// to do with it as a Job, Run it, inspect the outcome.
//
//	net, _ := dacpara.Generate("mult", dacpara.ScaleSmall)
//	out, _ := dacpara.Run(ctx, net, dacpara.Job{Engine: dacpara.EngineDACPara, Verify: true}, dacpara.Hooks{})
//	fmt.Println(out.Result.AreaReduction(), out.Verify.Proved)
//
// Rewrite and Flow are shorthands for the two common jobs.
package dacpara

import (
	"context"
	"fmt"
	"sync"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/cec"
	"dacpara/internal/cut"
	"dacpara/internal/metrics"
	"dacpara/internal/npn"
	"dacpara/internal/rewlib"
	"dacpara/internal/rewrite"
)

// Network is an And-Inverter Graph; see the methods on aig.AIG (Stats,
// Clone, WriteFile, Check, ...).
type Network = aig.AIG

// Config carries the rewriting knobs shared by all engines; the zero
// value is the ABC-`rewrite`-like default.
type Config = rewrite.Config

// Result reports one rewriting run.
type Result = rewrite.Result

// Library is the NPN structure forest shared by all engines.
type Library = rewlib.Library

// MetricsCollector gathers per-phase timings, per-level parallelism,
// speculative-work accounting and QoR deltas for one engine run. Create
// one with NewMetrics, set it on Config.Metrics, and read the snapshot
// from Result.Metrics after the run. A nil collector (the default) costs
// nothing.
type MetricsCollector = metrics.Collector

// MetricsSnapshot is the machine-readable record of one instrumented
// run; its JSON form is the dacpara-metrics/v1 schema that -stats-json
// and the daemon's /jobs/{id}/metrics emit.
type MetricsSnapshot = metrics.Snapshot

// NewMetrics returns an enabled metrics collector.
func NewMetrics() *MetricsCollector { return metrics.New() }

// Scale selects generated benchmark sizes.
type Scale = bench.Scale

// Benchmark scales re-exported for callers.
const (
	ScaleTiny  = bench.ScaleTiny
	ScaleSmall = bench.ScaleSmall
	ScaleFull  = bench.ScaleFull
)

// Engine names a rewriting implementation: a row of the engine table
// (see rewrite.Run).
type Engine = rewrite.Engine

// The five engines of the paper's experimental comparison.
const (
	// EngineSerial is the serial DAG-aware rewriting of ABC's `rewrite`.
	EngineSerial = rewrite.EngineSerial
	// EngineLockPar is the fused-operator parallel rewriting of ICCAD'18.
	EngineLockPar = rewrite.EngineLockPar
	// EngineDACPara is the paper's divide-and-conquer three-stage
	// parallel rewriting.
	EngineDACPara = rewrite.EngineDACPara
	// EngineStaticDAC22 models the DAC'22 GPU rewriter (NovelRewrite) on
	// the CPU: static-information evaluation, serial conditional
	// replacement.
	EngineStaticDAC22 = rewrite.EngineStaticDAC22
	// EngineStaticTCAD23 models the TCAD'23 GPU rewriter on the CPU.
	EngineStaticTCAD23 = rewrite.EngineStaticTCAD23
)

// Engines lists all engine names.
func Engines() []Engine { return rewrite.Engines() }

// P1 is the paper's Table 3 DACPara-P1 configuration (8 cuts, 5
// structures, 134 classes, two passes).
func P1() Config { return rewrite.P1() }

// P2 is the paper's DACPara-P2 configuration (ICCAD'18 setup: unlimited
// cuts/structures, one pass).
func P2() Config { return rewrite.P2() }

// MaxCutWidth is the largest supported rewriting cut width (Config.K).
const MaxCutWidth = cut.MaxK

// CutCache makes cut sets persistent across engine passes and flow steps
// (Config.CutCache): stored sets are revalidated incrementally by node
// version instead of re-enumerated from scratch, with byte-identical
// results. Scope one cache to one flow run or one network's optimization
// session; Flow installs one automatically when the config has none.
type CutCache = cut.Cache

// NewCutCache creates an empty persistent cut cache.
func NewCutCache() *CutCache { return cut.NewCache() }

var defaultLibrary = sync.OnceValues(func() (*Library, error) {
	return rewlib.Build(npn.Shared(), rewlib.Params{})
})

// DefaultLibrary returns the process-wide structure library, built on
// first use and then cached: 4–8 ms for the NPN table
// (BenchmarkManagerBuild in internal/npn) and 18–28 ms for the 222 class
// forests (BenchmarkLibraryBuild in internal/rewlib). The forests of the
// 5/6-input classes that Config.K >= 5 meets fill in on first use and are
// likewise shared by every run of the process.
func DefaultLibrary() (*Library, error) { return defaultLibrary() }

// Rewrite optimizes the network in place with the chosen engine and
// returns the run statistics: Run on Job{Engine: engine} with cfg's
// knobs and attachments.
func Rewrite(net *Network, engine Engine, cfg Config) (Result, error) {
	out, err := Run(context.Background(), net, Job{Engine: engine}.WithKnobs(cfg), Hooks{Attach: cfg})
	return out.Result, err
}

// ReadAIGER loads a network from an AIGER file (ASCII or binary).
func ReadAIGER(path string) (*Network, error) { return aig.ReadFile(path) }

// NewNetwork returns an empty network for programmatic construction.
func NewNetwork() *Network { return aig.New() }

// Generate builds one of the named benchmark circuits of the paper's
// Table 1 ("sin", "voter", "square", "sqrt", "mult", "log2", "mem_ctrl",
// "hyp", "div", "sixteen", "twenty", "twentythree"), including its
// `double` scaling, at the requested scale.
func Generate(name string, scale Scale) (*Network, error) {
	for _, c := range bench.Suite(scale) {
		if c.Name == name || baseName(c.Name) == name {
			return c.Instantiate(scale), nil
		}
	}
	return nil, fmt.Errorf("dacpara: unknown benchmark %q", name)
}

// BenchmarkNames lists the generatable circuits at a scale.
func BenchmarkNames(scale Scale) []string {
	var names []string
	for _, c := range bench.Suite(scale) {
		names = append(names, c.Name)
	}
	return names
}

func baseName(n string) string {
	for i := 0; i < len(n); i++ {
		if n[i] == '_' {
			// strip the "_10xd" style suffix only
			if i+1 < len(n) && n[i+1] >= '0' && n[i+1] <= '9' {
				return n[:i]
			}
		}
	}
	return n
}

// Equivalent checks combinational equivalence of two networks (random
// simulation screening plus a SAT proof per output).
func Equivalent(a, b *Network) (bool, error) {
	r, err := cec.Check(a, b, cec.Options{})
	if err != nil {
		return false, err
	}
	return r.Equivalent, nil
}

// EquivalentFast is a simulation-only check for very large networks:
// inequivalence is definitive, equivalence is high-confidence but not
// proved.
func EquivalentFast(a, b *Network) (bool, error) {
	r, err := cec.Check(a, b, cec.Options{SimOnly: true, SimRounds: 64})
	if err != nil {
		return false, err
	}
	return r.Equivalent, nil
}

// EquivalentBudget is Equivalent with a bounded proof effort: at most
// conflictBudget SAT conflicts are spent per output (0 means the default
// budget of 200000). When the budget runs out on some output the check
// degrades honestly instead of hanging: eq reflects the simulation
// screen's verdict and proved is false. Inequivalence (a counterexample
// from simulation or SAT) is always definitive. This is the bound a
// service should use when verifying untrusted submissions — a
// SAT-adversarial circuit then costs a bounded slice of solver work, not
// an unbounded job.
func EquivalentBudget(a, b *Network, conflictBudget int64) (eq, proved bool, err error) {
	r, err := cec.Check(a, b, cec.Options{OutputBudget: conflictBudget})
	if err != nil {
		return false, false, err
	}
	return r.Equivalent, r.Proved, nil
}
