// Package cec implements combinational equivalence checking, the
// verification step the paper applies to every rewritten circuit ("the
// rewritten circuits all passed the equivalence check"), and functional
// reduction (fraiging), which is the same machinery run on one network.
//
// Two networks are compared by building a miter — one AIG with shared
// primary inputs whose outputs are the XORs of the corresponding output
// pairs — which structural hashing already collapses wherever the two
// circuits agree structurally. Random 64-bit-parallel simulation screens
// for cheap counterexamples. The miter is then functionally reduced (see
// reducer): rebuilt out of place, merging every node that SAT proves
// equal to an earlier one, with every counterexample the solver finds
// fed back into the simulation signatures that pick the candidates.
// What is left of each miter output is proved constant false with the
// CDCL solver on a Tseitin encoding; nearly always nothing is left.
// Every SAT query is solved inside the cone of its own literals
// (sat.SolveWithin), and a counterexample is replayed on the two input
// networks before it is reported.
package cec

import (
	"fmt"
	"math/rand"

	"dacpara/internal/aig"
	"dacpara/internal/sat"
)

// Options configure a check.
type Options struct {
	// SimRounds is the number of random 64-pattern simulation rounds used
	// to screen for counterexamples before SAT (0: 16 rounds).
	SimRounds int
	// SimOnly skips the SAT proof: the result is then only
	// probabilistically sound for equivalence (inequivalence is always
	// proved by the counterexample). Used for very large circuits.
	SimOnly bool
	// NoSweep proves each output on the miter as built: no functional
	// reduction, no counterexample feedback, and plain SolveLimited over
	// every variable instead of cone-local solving. It shares only the
	// miter, the encoder and the CDCL core with the default path, which
	// makes it the reference the differential tests hold that path to;
	// on arithmetic miters it is far slower.
	NoSweep bool
	// OutputBudget bounds the SAT conflicts spent per output proof
	// (0: 200000). On exhaustion the check degrades to simulation-only
	// confidence for that output (Proved=false) instead of hanging.
	OutputBudget int64
	// Seed for the simulation patterns.
	Seed int64
}

// Result reports a check.
type Result struct {
	Equivalent bool
	// FailingOutput is the index of a differing output (-1 when
	// equivalent).
	FailingOutput int
	// Counterexample, for inequivalent networks, is a PI assignment (one
	// value per primary input, in PI order) on which FailingOutput
	// differs.
	Counterexample []bool
	// Proved is true when equivalence was established by SAT on every
	// output, or inequivalence by a counterexample; false means
	// simulation-only confidence in equivalence.
	Proved bool
	// Effort is the work of the reduction and of all SAT calls of the
	// check; OutputSATCalls is the part of SATCalls spent on outputs the
	// reduction did not already make constant.
	Effort
	OutputSATCalls int64
}

// Check verifies that a and b compute identical functions. The networks
// must agree in PI and PO counts (PIs correspond by creation order).
//
// Equivalent: false is reported only with a counterexample that was
// simulated on a and b and makes FailingOutput differ: patterns of the
// simulation screen are that by construction, and a SAT model is
// replayed. A model that does not replay means the checker itself is
// wrong, and is returned as an error, never as a verdict.
func Check(a, b *aig.AIG, opts Options) (Result, error) {
	if a.NumPIs() != b.NumPIs() {
		return Result{}, fmt.Errorf("cec: PI count mismatch: %d vs %d", a.NumPIs(), b.NumPIs())
	}
	if a.NumPOs() != b.NumPOs() {
		return Result{}, fmt.Errorf("cec: PO count mismatch: %d vs %d", a.NumPOs(), b.NumPOs())
	}
	m := Miter(a, b)

	// Simulation screening.
	rounds := opts.SimRounds
	if rounds <= 0 {
		rounds = 16
	}
	rng := rand.New(rand.NewSource(opts.Seed + 0x5EED))
	sim := aig.NewSimulator(m)
	pi := make([]uint64, m.NumPIs())
	for r := 0; r < rounds; r++ {
		for i := range pi {
			pi[i] = rng.Uint64()
		}
		out := sim.Run(pi)
		for k, w := range out {
			if w != 0 {
				bit := uint(0)
				for w>>bit&1 == 0 {
					bit++
				}
				cex := make([]bool, len(pi))
				for i := range pi {
					cex[i] = pi[i]>>bit&1 == 1
				}
				return Result{Equivalent: false, FailingOutput: k, Counterexample: cex, Proved: true}, nil
			}
		}
	}
	if opts.SimOnly {
		return Result{Equivalent: true, FailingOutput: -1, Proved: false}, nil
	}

	// Functional reduction merges internally equivalent cones of the two
	// sides; what it leaves of each miter output is then proved constant
	// false.
	res := Result{Equivalent: true, FailingOutput: -1, Proved: true}
	var enc *encoder
	outs := m.POs()
	if opts.NoSweep {
		enc = newEncoder(m, int(m.Capacity()), false)
	} else {
		var r *reducer
		r, outs = reduce(m, rng)
		enc, res.Effort = r.enc, r.eff
	}
	budget := opts.OutputBudget
	if budget <= 0 {
		budget = 200_000
	}
	for k, po := range outs {
		if po == aig.LitFalse {
			continue // the two cones merged, structurally or by proof
		}
		cex := make([]bool, m.NumPIs()) // a constant-true output differs everywhere
		if po != aig.LitTrue {
			res.OutputSATCalls++
			isSat, decided := enc.solve(budget, enc.lit(po))
			if !decided {
				// Budget exhausted: simulation said equivalent, SAT could not
				// finish the proof — degrade honestly.
				res.Proved = false
				continue
			}
			if !isSat {
				continue
			}
			enc.modelInputs(func(pi int32, v bool) { cex[pi-1] = v })
		}
		if err := replay(a, b, k, cex); err != nil {
			return Result{}, err
		}
		res.Equivalent, res.FailingOutput, res.Counterexample, res.Proved = false, k, cex, true
		break
	}
	if err := enc.finish(&res.Effort); err != nil {
		return Result{}, err
	}
	return res, nil
}

// replay simulates a counterexample on the two networks and fails unless
// it makes output k differ.
func replay(a, b *aig.AIG, k int, cex []bool) error {
	pi := make([]uint64, len(cex))
	for i, v := range cex {
		if v {
			pi[i] = 1
		}
	}
	if (aig.NewSimulator(a).Run(pi)[k]^aig.NewSimulator(b).Run(pi)[k])&1 == 0 {
		return fmt.Errorf("cec: internal inconsistency: the SAT counterexample for output %d does not make it differ on the two networks", k)
	}
	return nil
}

// Miter builds the XOR miter of two networks over shared primary inputs.
func Miter(a, b *aig.AIG) *aig.AIG {
	m := aig.New(aig.Options{CapacityHint: a.NumAnds() + b.NumAnds() + 1})
	m.Name = "miter"
	pis := make([]aig.Lit, a.NumPIs())
	for i := range pis {
		pis[i] = m.AddPI()
	}
	am := copyInto(m, a, pis)
	bm := copyInto(m, b, pis)
	for k := range a.POs() {
		m.AddPO(m.Xor(am[k], bm[k]))
	}
	return m
}

// copyInto clones src's logic into dst over the given PI literals and
// returns the mapped PO literals.
func copyInto(dst, src *aig.AIG, pis []aig.Lit) []aig.Lit {
	mp := make([]aig.Lit, src.Capacity())
	mp[0] = aig.LitFalse
	for i, pi := range src.PIs() {
		mp[pi] = pis[i]
	}
	for _, id := range src.TopoOrder(nil) {
		n := src.N(id)
		if n.IsAnd() {
			f0 := mp[n.Fanin0().Node()].XorCompl(n.Fanin0().Compl())
			f1 := mp[n.Fanin1().Node()].XorCompl(n.Fanin1().Compl())
			mp[id] = dst.And(f0, f1)
		}
	}
	out := make([]aig.Lit, src.NumPOs())
	for k, po := range src.POs() {
		out[k] = mp[po.Node()].XorCompl(po.Compl())
	}
	return out
}

// encoder Tseitin-encodes an AIG into a SAT solver lazily per cone. The
// graph may grow by new ANDs between calls; the function of a node that
// has been encoded must not change.
type encoder struct {
	s    *sat.Solver
	a    *aig.AIG
	vars []int32 // node -> solver var + 1 (0 = unencoded)

	// What was encoded, per solver variable: the node, and the variables
	// of its fanins (-1 twice for an input or the constant). The cone of
	// a query is walked over this record, not over the graph, so it is
	// closed under fanin as encoded — the premise of sat.SolveWithin —
	// by construction: a gate's three clauses were written over exactly
	// the variable and the two fanin variables recorded here.
	node  []int32
	fanin [][2]int32

	// local selects cone-local solving; roots are the variables of the
	// running query's literals, cone their cone (valid once the solver
	// asked for it, so after every SAT answer), stamp its visited marks.
	local bool
	roots []int32
	cone  []int32
	stamp []uint32
	epoch uint32
	scope func() []int32 // e.coneOfRoots, bound once

	calls, answers int64 // solve calls, and those that answered SAT
}

// newEncoder encodes nodes of a with IDs below bound.
func newEncoder(a *aig.AIG, bound int, local bool) *encoder {
	e := &encoder{s: sat.New(), a: a, vars: make([]int32, bound), local: local}
	e.scope = e.coneOfRoots
	return e
}

// lit returns the solver literal for an AIG literal, encoding the cone on
// demand.
func (e *encoder) lit(l aig.Lit) sat.Lit {
	return sat.MkLit(int(e.variable(l.Node())), l.Compl())
}

func (e *encoder) variable(id int32) int32 {
	if e.vars[id] != 0 {
		return e.vars[id] - 1
	}
	v := int32(e.s.NewVar())
	e.vars[id] = v + 1
	e.node = append(e.node, id)
	e.fanin = append(e.fanin, [2]int32{-1, -1})
	e.stamp = append(e.stamp, 0)
	n := e.a.N(id)
	switch n.Kind() {
	case aig.KindConst:
		e.s.AddClause(sat.MkLit(int(v), true)) // constant false
	case aig.KindAnd:
		f0 := e.lit(n.Fanin0())
		f1 := e.lit(n.Fanin1())
		e.fanin[v] = [2]int32{int32(f0.Var()), int32(f1.Var())}
		c := sat.MkLit(int(v), false)
		// v <-> f0 & f1
		e.s.AddClause(c.Not(), f0)
		e.s.AddClause(c.Not(), f1)
		e.s.AddClause(f0.Not(), f1.Not(), c)
	}
	return v
}

// solve decides the conjunction of the literals within the budget:
// inside their cone, or over every variable when the encoder is not
// local.
func (e *encoder) solve(budget int64, lits ...sat.Lit) (isSat, decided bool) {
	e.calls++
	if e.local {
		e.roots = e.roots[:0]
		for _, l := range lits {
			e.roots = append(e.roots, int32(l.Var()))
		}
		isSat, decided = e.s.SolveWithin(budget, e.scope, lits...)
	} else {
		isSat, decided = e.s.SolveLimited(budget, lits...)
	}
	if isSat && decided {
		e.answers++
	}
	return isSat, decided
}

// coneOfRoots collects the variables the roots depend on, as encoded.
func (e *encoder) coneOfRoots() []int32 {
	e.epoch++
	e.cone = e.cone[:0]
	for _, v := range e.roots {
		if e.stamp[v] != e.epoch {
			e.stamp[v] = e.epoch
			e.cone = append(e.cone, v)
		}
	}
	for i := 0; i < len(e.cone); i++ {
		for _, f := range e.fanin[e.cone[i]] {
			if f >= 0 && e.stamp[f] != e.epoch {
				e.stamp[f] = e.epoch
				e.cone = append(e.cone, f)
			}
		}
	}
	return e.cone
}

// modelInputs reports, after a SAT answer, the value of every primary
// input the model fixes: those of the solved cone, or every encoded one
// after a solve over all variables. An input it does not report is free.
func (e *encoder) modelInputs(report func(pi int32, v bool)) {
	visit := func(v int32) {
		if id := e.node[v]; e.a.N(id).IsPI() {
			report(id, e.s.Value(int(v)))
		}
	}
	if e.local {
		for _, v := range e.cone {
			visit(v)
		}
		return
	}
	for v := range e.node {
		visit(int32(v))
	}
}

// finish reports the solver's counters in eff, and fails if the solver
// has derived that no input satisfies the clauses: they say how a circuit
// computes, so every input does, and an UNSAT answer from a solver in
// that state would prove anything.
func (e *encoder) finish(eff *Effort) error {
	eff.SATCalls, eff.SATAnswers = e.calls, e.answers
	eff.SATConflicts, eff.Decisions, eff.Propagations = e.s.Conflicts, e.s.Decisions, e.s.Propagations
	if !e.s.Okay() {
		return fmt.Errorf("cec: internal inconsistency: the circuit encoding became unsatisfiable")
	}
	return nil
}
