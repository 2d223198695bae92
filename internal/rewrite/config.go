// Package rewrite implements DAG-aware AIG rewriting (Mishchenko et al.,
// DAC'06): the evaluation and replacement machinery, its adapters onto
// the pass-engine framework (Pass, fusedPass), and the engine
// table binding each named engine to its plan (see Run).
//
// Rewriting visits nodes, enumerates their 4-input cuts, matches each
// cut's function against the NPN structure library, estimates the gain of
// swapping the cut's cone for a precomputed structure — counting logical
// sharing on both sides — and commits the best strictly positive
// replacement.
package rewrite

import (
	"dacpara/internal/aig"
	"dacpara/internal/cut"
	"dacpara/internal/engine"
	"dacpara/internal/galois"
	"dacpara/internal/metrics"
	"dacpara/internal/rewlib"
)

// Common134 is the number of NPN classes ABC's `rewrite` operator
// evaluates; `drw` (modelled by the GPU baselines) uses all 222.
const Common134 = 134

// Config holds the knobs shared by every rewriting engine. The zero value
// is the `rewrite`-like default configuration; the paper's Table 3
// parameterizations are P1() and P2().
type Config struct {
	// K is the cut width, 4..cut.MaxK (0: classic 4-input rewriting).
	// Cuts of 5 and 6 leaves are matched against forests the library
	// synthesizes on first use (rewlib.Library.ForRepr).
	K int
	// MaxCuts bounds stored cuts per node (0: cut.DefaultCutLimit(K)).
	MaxCuts int
	// MaxStructs bounds the structures evaluated per NPN class
	// (0: evaluate the whole forest).
	MaxStructs int
	// NumClasses restricts evaluation to the most populous NPN classes
	// (0: Common134; use 222 for the full space).
	NumClasses int
	// ZeroGain also commits zero-gain replacements that change structure,
	// like ABC's `rewrite -z`.
	ZeroGain bool
	// PreserveDelay rejects replacements whose new cone would be deeper
	// than the one it replaces (ABC's update-level behaviour). Level
	// estimates can be slightly stale mid-rewriting; this is a heuristic
	// bound, not a hard delay constraint.
	PreserveDelay bool
	// Passes repeats the whole rewriting sweep (0: one pass).
	Passes int
	// Workers sets the parallelism of parallel engines
	// (0: runtime.GOMAXPROCS).
	Workers int
	// Fault injects seeded faults into the speculative executor of the
	// parallel engines — forced aborts, lock-hold delays, worker stalls,
	// worklist shuffles (see galois.FaultPlan). Nil, the default, costs
	// nothing. Serial engines take no locks and are unaffected. Its
	// RetryBudget bounds consecutive aborts per work item before a
	// parallel engine gives up with a *galois.RetryBudgetError.
	Fault *galois.FaultPlan
	// Metrics, when non-nil, collects per-phase timings, per-level
	// parallelism, speculative-work accounting and QoR deltas for the run
	// (see internal/metrics). The engine resets the collector on entry
	// and attaches the final snapshot to Result.Metrics, so one collector
	// reused across flow steps yields one snapshot per step. Nil, the
	// default, costs nothing on the hot paths.
	Metrics *metrics.Collector
	// CutCache, when non-nil, makes cut sets persistent across engine
	// passes and flow steps: each pass reuses the cached manager for the
	// graph and revalidates stored sets incrementally by node version
	// instead of re-enumerating from scratch (see cut.Cache). Nil, the
	// default, enumerates fresh per pass — results are byte-identical
	// either way. Flow runs install one cache automatically.
	CutCache *cut.Cache
}

// P1 is the paper's Table 3 "DACPara-P1" configuration: 8 cuts per node,
// 5 structures per class, 134 classes, two passes — matching the GPU
// baselines' drw-style budget.
func P1() Config {
	return Config{MaxCuts: 8, MaxStructs: 5, NumClasses: Common134, Passes: 2}
}

// P2 is the paper's "DACPara-P2" configuration: the ICCAD'18 setup — 134
// classes, one pass, no cut or structure limits.
func P2() Config {
	return Config{NumClasses: Common134, Passes: 1}
}

func (c Config) passes() int {
	if c.Passes <= 0 {
		return 1
	}
	return c.Passes
}

func (c Config) numClasses() int {
	if c.NumClasses <= 0 {
		return Common134
	}
	return c.NumClasses
}

// classMask materializes the class restriction against a library.
func (c Config) classMask(lib *rewlib.Library) []bool {
	return lib.PracticalClasses(c.numClasses())
}

func (c Config) maxStructs(n int) int {
	if c.MaxStructs <= 0 || c.MaxStructs > n {
		return n
	}
	return c.MaxStructs
}

// cutManager resolves the pass's cut manager: the persistent cached one
// (opening a new validation epoch) when a CutCache is configured, a
// fresh throwaway manager otherwise.
func (c Config) cutManager(a *aig.AIG) *cut.Manager {
	params := cut.Params{K: c.K, MaxCuts: c.MaxCuts}
	if c.CutCache != nil {
		m := c.CutCache.Manager(a, params)
		m.NextEpoch()
		return m
	}
	return cut.NewManager(a, params)
}

// Exec materializes the Config's spine knobs for the pass-engine
// framework (parallelism, pass count, fault plan, metrics).
func (c Config) Exec() engine.Exec {
	return engine.Exec{
		Workers: c.Workers,
		Passes:  c.Passes,
		Fault:   c.Fault,
		Metrics: c.Metrics,
	}
}

// Result reports one engine run. It is the framework's pass-generic
// result type; the alias keeps the historical rewrite.Result name every
// engine and the facade return.
type Result = engine.Result
