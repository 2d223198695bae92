package sat_test

import (
	"bytes"
	"fmt"
	"testing"

	"dacpara"
	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/cec"
	"dacpara/internal/sat"
)

// rup checks a clausal refutation forward by reverse unit propagation: a
// clause it checks must, once all of its literals are made false, let
// unit propagation over the clauses it holds reach a conflict. It keeps
// every clause it is given, which is sound (a kept clause is implied by
// the inputs whatever the solver deleted), and shares no code with the
// solver: literals are 2*variable+sign ints, propagation is its own.
type rup struct {
	clauses [][]int32 // the two watched literals first
	watches [][]int32 // per literal: the clauses watching it
	val     []int8    // per literal: 1 true, -1 false, 0 unassigned
	trail   []int32
	qhead   int
	broken  bool // the clauses propagate to a conflict on their own
}

func (r *rup) grow(l int32) {
	for int(l) >= len(r.val) {
		r.val = append(r.val, 0, 0)
		r.watches = append(r.watches, nil, nil)
	}
}

func (r *rup) assign(l int32) {
	r.val[l], r.val[l^1] = 1, -1
	r.trail = append(r.trail, l)
}

// propagate reports false on a conflict.
func (r *rup) propagate() bool {
	for ; r.qhead < len(r.trail); r.qhead++ {
		f := r.trail[r.qhead] ^ 1 // the literal that became false
		ws := r.watches[f]
		for i := 0; i < len(ws); {
			c := r.clauses[ws[i]]
			if c[0] == f {
				c[0], c[1] = c[1], c[0]
			}
			if r.val[c[0]] == 1 {
				i++
				continue
			}
			moved := false
			for k := 2; k < len(c); k++ {
				if r.val[c[k]] != -1 {
					c[1], c[k] = c[k], c[1]
					r.watches[c[1]] = append(r.watches[c[1]], ws[i])
					ws[i] = ws[len(ws)-1]
					ws = ws[:len(ws)-1]
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			if r.val[c[0]] == -1 {
				r.watches[f] = ws
				return false
			}
			r.assign(c[0])
			i++
		}
		r.watches[f] = ws
	}
	return true
}

// add stores a clause, which is taken as true, at the root.
func (r *rup) add(lits []int32) {
	c := make([]int32, 0, len(lits))
	for _, l := range lits {
		r.grow(l)
		switch {
		case r.val[l] == 1:
			return // satisfied at the root for good
		case r.val[l] == -1:
			continue
		}
		dup := false
		for _, o := range c {
			dup = dup || o == l
		}
		if !dup {
			c = append(c, l)
		}
	}
	switch len(c) {
	case 0:
		r.broken = true
	case 1:
		r.assign(c[0])
		r.broken = r.broken || !r.propagate()
	default:
		r.watches[c[0]] = append(r.watches[c[0]], int32(len(r.clauses)))
		r.watches[c[1]] = append(r.watches[c[1]], int32(len(r.clauses)))
		r.clauses = append(r.clauses, c)
	}
}

// implied reports whether the clause follows by reverse unit propagation.
func (r *rup) implied(lits []int32) bool {
	if r.broken {
		return true
	}
	root := len(r.trail)
	ok := false
	for _, l := range lits {
		r.grow(l)
		if r.val[l] == 1 {
			ok = true
			break
		}
		if r.val[l] == 0 {
			r.assign(l ^ 1)
		}
	}
	ok = ok || !r.propagate()
	for _, l := range r.trail[root:] {
		r.val[l], r.val[l^1] = 0, 0
	}
	r.trail, r.qhead = r.trail[:root], root
	return ok
}

// proofChecker gives every solver made while it is installed a rup of its
// own and counts what they were told.
type proofChecker struct {
	inputs, learnts, unsats int
	failures                []string
}

func checkProofs(t *testing.T) *proofChecker {
	pc := &proofChecker{}
	*sat.NewProof = func() func(sat.ProofStep, []sat.Lit) {
		r := &rup{}
		return func(step sat.ProofStep, lits []sat.Lit) {
			c := make([]int32, len(lits))
			for i, l := range lits {
				c[i] = int32(l)
			}
			switch step {
			case sat.ProofInput:
				pc.inputs++
			case sat.ProofLearnt:
				pc.learnts++
			case sat.ProofUnsat:
				pc.unsats++
			}
			if step != sat.ProofInput && !r.implied(c) && len(pc.failures) < 5 {
				pc.failures = append(pc.failures, fmt.Sprintf("step %d (%d inputs, %d learnt, %d UNSAT so far): %v is not implied by unit propagation", step, pc.inputs, pc.learnts, pc.unsats, lits))
			}
			r.add(c)
		}
	}
	t.Cleanup(func() { *sat.NewProof = nil })
	return pc
}

func viaAIGER(t *testing.T, c *aig.AIG) *aig.AIG {
	t.Helper()
	var blob bytes.Buffer
	if err := c.WriteBinary(&blob); err != nil {
		t.Fatal(err)
	}
	net, err := aig.Read(&blob)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestUnsatAnswersFollowByUnitPropagation replays every clause the solver
// learns and every UNSAT answer it gives through an independent checker:
// on the twelve proofs of the benchmark's flow_verified operation (each
// circuit against its flow output and its one-pass rewrite), and on two
// circuits of TestVerdictsAgreeWithExhaustiveSimulation under its three
// scripts, by the default check and by the NoSweep path, whose output
// proofs are Solve calls over every variable.
func TestUnsatAnswersFollowByUnitPropagation(t *testing.T) {
	type pair struct {
		name string
		a, b *aig.AIG
		opts cec.Options
	}
	var pairs []pair
	names := []string{"sin", "voter", "sqrt", "log2", "mem_ctrl", "mtm"}
	for i, c := range bench.FlowVerified() {
		_, flowed, err := dacpara.Flow(viaAIGER(t, c), "b; rw; rf -p; b; rw; rw -z; b; rs -p; rw -z; b", dacpara.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		once := viaAIGER(t, c)
		if _, err := dacpara.Rewrite(once, dacpara.EngineDACPara, dacpara.Config{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{names[i] + " flow", viaAIGER(t, c), flowed, cec.Options{}},
			pair{names[i] + " rewrite", viaAIGER(t, c), once, cec.Options{}})
	}
	for _, c := range []struct {
		name string
		net  *aig.AIG
	}{{"log2(7,3)", bench.Log2(7, 3)}, {"sin(8)", bench.Sin(8)}} {
		for si, script := range []string{"rw", "b; rw; rf; b; rw -z", "rw; rs; b"} {
			_, out, err := dacpara.Flow(c.net.Clone(), script, dacpara.Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, noSweep := range []bool{false, true} {
				pairs = append(pairs, pair{fmt.Sprintf("%s %q NoSweep=%v", c.name, script, noSweep), c.net, out, cec.Options{Seed: int64(si), NoSweep: noSweep}})
			}
		}
	}

	pc := checkProofs(t)
	var refuted int64
	for _, p := range pairs {
		res, err := cec.Check(p.a, p.b, p.opts)
		if err != nil || !res.Equivalent {
			t.Fatalf("%s: equivalent=%v, %v", p.name, res.Equivalent, err)
		}
		refuted += res.SATCalls - res.SATAnswers
		for _, f := range pc.failures {
			t.Errorf("%s: %s", p.name, f)
		}
		if len(pc.failures) > 0 {
			t.FailNow()
		}
	}
	t.Logf("%d pairs: %d input clauses, %d learnt clauses and %d UNSAT answers checked", len(pairs), pc.inputs, pc.learnts, pc.unsats)
	if pc.learnts == 0 || int64(pc.unsats) != refuted {
		t.Fatalf("%d learnt clauses and %d UNSAT answers logged; the checks' SAT calls not answered SAT: %d", pc.learnts, pc.unsats, refuted)
	}
}
