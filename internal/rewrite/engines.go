package rewrite

import (
	"context"
	"fmt"

	"dacpara/internal/aig"
	"dacpara/internal/engine"
	"dacpara/internal/rewlib"
)

// Engine names a rewriting implementation: one row of the engine table.
type Engine string

// The five engines of the paper's experimental comparison, plus the
// level-partitioning ablation.
const (
	// EngineSerial is the serial DAG-aware rewriting of ABC's `rewrite`
	// (the baseline of the paper's Table 2): one visit per node in
	// topological order, immediate commits, so every node sees the
	// latest graph.
	EngineSerial Engine = "abc"
	// EngineLockPar is the fused-operator fine-grained parallel
	// rewriting of Possani et al. (ICCAD'18): one speculative operator
	// per node enumerates, evaluates and replaces under one lock set, and
	// a conflict discards all of it (see fusedPass).
	EngineLockPar Engine = "iccad18"
	// EngineDACPara is the paper's contribution (Algorithm 1): nodes are
	// divided by level, and each level's worklist runs three separate
	// parallel operators — cut enumeration, whose cut sets publish
	// themselves instead of being locked, lock-free evaluation (over 90%
	// of the runtime) storing its best result per node — the two sharing
	// one sweep of the level — and replacement re-validating the stored
	// cut and structure on the LATEST graph before locking and updating.
	// A conflict can only discard the cheap replacement bookkeeping, never
	// the evaluation — the essence of the paper's Fig. 2.
	EngineDACPara Engine = "dacpara"
	// EngineStaticDAC22 models the DAC'22 GPU rewriter (NovelRewrite) on
	// the CPU: enumerate and evaluate ALL nodes once, in parallel,
	// against the ORIGINAL graph (static global information, no locks),
	// then apply the stored replacements in a serial conditional pass,
	// skipping any whose cut lost a leaf. Decisions ignore how earlier
	// replacements changed the graph, so some realize zero or negative
	// gain — the quality penalty of the paper's Table 3. The GPU itself
	// is not modelled; runtimes are CPU model runtimes.
	EngineStaticDAC22 Engine = "dac22"
	// EngineStaticTCAD23 models the TCAD'23 GPU rewriter: like DAC'22,
	// but a stored structure whose leaf set still exists structurally is
	// re-enumerated and retried, accepted if the NPN class still matches.
	EngineStaticTCAD23 Engine = "tcad23"
	// EngineFlat is the level-partitioning ablation: DACPara's three
	// split operators over ONE worklist holding every node in
	// topological order. Evaluation then races far ahead of replacement
	// validity — stored results go stale much more often — which is what
	// the paper's nodeDividing step prevents. Not part of Engines().
	EngineFlat Engine = "dacpara-flat"
)

// Engines lists the five engines of the paper's comparison.
func Engines() []Engine {
	return []Engine{EngineSerial, EngineLockPar, EngineDACPara, EngineStaticDAC22, EngineStaticTCAD23}
}

// spec is one row of the engine table: the plan the pass engine drives
// and the pass it drives. What the pass implements chooses the phases
// (see engine.Run): Pass splits a node's work into enumeration, lock-free
// evaluation and revalidating commit, with the two variant knobs of the
// static models; fusedPass does all of it in the commit, under the
// activity's locks or, in a serial commit, without.
type spec struct {
	plan                             engine.Plan
	fused                            bool
	trustStoredGain, skipStaleLeaves bool
}

var table = map[Engine]spec{
	EngineSerial:  {plan: engine.Plan{Name: "abc-rewrite", Partition: engine.Topo, SerialCommit: true}, fused: true},
	EngineLockPar: {plan: engine.Plan{Name: "iccad18-lockpar", Partition: engine.Flat}, fused: true},
	EngineDACPara: {plan: engine.Plan{Name: "dacpara", Partition: engine.ByLevel}},
	EngineFlat:    {plan: engine.Plan{Name: "dacpara-flat", Partition: engine.Flat}},
	// The static models: every node is enumerated and evaluated against
	// the unchanged input graph (one worklist), then the stored decisions
	// are applied serially in level order, trusting the stored gain —
	// static global information — so realized gains may be zero or
	// negative.
	EngineStaticDAC22: {
		plan:            engine.Plan{Name: "dac22-novelrewrite", Partition: engine.LevelOrder, SerialCommit: true},
		trustStoredGain: true, skipStaleLeaves: true,
	},
	EngineStaticTCAD23: {
		plan:            engine.Plan{Name: "tcad23-gpu", Partition: engine.LevelOrder, SerialCommit: true},
		trustStoredGain: true,
	},
}

// Run rewrites the network in place with the named engine. Cancelling
// ctx interrupts the engine at its next cancellation point — a worklist
// boundary, an activity boundary inside an executor phase, every
// engine.SerialCancelStride nodes of a serial commit — and returns the
// wrapped ctx error; a retry-budget exhaustion (possibly fault-injected)
// surfaces the same way. Either leaves the network structurally
// consistent but partially rewritten, and the Result, marked Incomplete,
// covers the work done.
func Run(ctx context.Context, eng Engine, a *aig.AIG, lib *rewlib.Library, cfg Config) (Result, error) {
	s, ok := table[eng]
	if !ok {
		return Result{}, fmt.Errorf("rewrite: unknown engine %q", eng)
	}
	var pass engine.Pass = &Pass{A: a, Lib: lib, Cfg: cfg, TrustStoredGain: s.trustStoredGain, SkipStaleLeaves: s.skipStaleLeaves}
	if s.fused {
		pass = &fusedPass{a: a, lib: lib, cfg: cfg}
	}
	return engine.Run(ctx, a, pass, s.plan, cfg.Exec())
}
