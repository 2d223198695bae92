package sat

import (
	"math/rand"
	"testing"
)

// circuit is a random AND-inverter circuit over solver variables: inputs
// are variables 0..nIn-1, gate i is variable nIn+i and reads two literals
// of earlier variables.
type circuit struct {
	nIn   int
	gates [][2]Lit
}

func randomCircuit(rng *rand.Rand, nIn, nGates int) circuit {
	c := circuit{nIn: nIn}
	for i := 0; i < nGates; i++ {
		// Mostly recent variables, so that cones are deep and narrow and
		// most of the circuit lies outside any one of them.
		pick := func() Lit {
			n := nIn + i
			v := n - 1 - rng.Intn(min(n, 6))
			if rng.Intn(4) == 0 {
				v = rng.Intn(n)
			}
			return MkLit(v, rng.Intn(2) == 0)
		}
		c.gates = append(c.gates, [2]Lit{pick(), pick()})
	}
	return c
}

// encode writes the Tseitin clauses of every gate.
func (c circuit) encode(s *Solver) {
	for i := 0; i < c.nIn+len(c.gates); i++ {
		s.NewVar()
	}
	for i, g := range c.gates {
		v := MkLit(c.nIn+i, false)
		s.AddClause(v.Not(), g[0])
		s.AddClause(v.Not(), g[1])
		s.AddClause(g[0].Not(), g[1].Not(), v)
	}
}

// eval computes every variable from the input values.
func (c circuit) eval(in []bool) []bool {
	val := append([]bool(nil), in...)
	holds := func(l Lit) bool { return val[l.Var()] != l.Neg() }
	for _, g := range c.gates {
		val = append(val, holds(g[0]) && holds(g[1]))
	}
	return val
}

// cone returns the variables the roots depend on.
func (c circuit) cone(roots ...Lit) []int32 {
	seen := map[int]bool{}
	var out []int32
	var walk func(v int)
	walk = func(v int) {
		if seen[v] {
			return
		}
		seen[v] = true
		out = append(out, int32(v))
		if v >= c.nIn {
			walk(c.gates[v-c.nIn][0].Var())
			walk(c.gates[v-c.nIn][1].Var())
		}
	}
	for _, r := range roots {
		walk(r.Var())
	}
	return out
}

// TestSolveWithinAnswersHoldOnTheCircuit checks the argument SolveWithin
// rests on where it could fail: many queries on one solver, so that
// learnt clauses and saved phases of earlier, overlapping cones are in
// play. A SAT answer's values of the cone's inputs, completed with
// arbitrary values of the other inputs, must make the assumptions true
// on the circuit itself, and the SAT/UNSAT answer must be what
// enumeration of all inputs says.
func TestSolveWithinAnswersHoldOnTheCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sats, unsats, small := 0, 0, 0
	for iter := 0; iter < 60; iter++ {
		nIn := 4 + rng.Intn(7)
		c := randomCircuit(rng, nIn, 30+rng.Intn(90))
		s := New()
		c.encode(s)
		nVars := nIn + len(c.gates)
		for q := 0; q < 40; q++ {
			assume := []Lit{MkLit(nIn+rng.Intn(len(c.gates)), rng.Intn(2) == 0)}
			if rng.Intn(2) == 0 {
				assume = append(assume, MkLit(nIn+rng.Intn(len(c.gates)), rng.Intn(2) == 0))
			}
			cone := c.cone(assume...)
			if len(cone) < nVars/2 {
				small++
			}
			want := false
			for m := 0; m < 1<<nIn && !want; m++ {
				in := make([]bool, nIn)
				for i := range in {
					in[i] = m>>i&1 == 1
				}
				val := c.eval(in)
				want = true
				for _, l := range assume {
					want = want && val[l.Var()] != l.Neg()
				}
			}
			got, decided := s.SolveWithin(1<<40, func() []int32 { return cone }, assume...)
			if !decided || got != want {
				t.Fatalf("iter %d query %d: SolveWithin = %v (decided %v), enumeration says %v", iter, q, got, decided, want)
			}
			if !got {
				unsats++
				continue
			}
			sats++
			in := make([]bool, nIn)
			for i := range in {
				in[i] = rng.Intn(2) == 0
			}
			for _, v := range cone {
				if int(v) < nIn {
					in[v] = s.Value(int(v))
				}
			}
			val := c.eval(in)
			for _, l := range assume {
				if val[l.Var()] == l.Neg() {
					t.Fatalf("iter %d query %d: assumption %v is false on the circuit under the model's cone inputs", iter, q, l)
				}
			}
			// Inside the cone the model is the circuit's evaluation.
			for _, v := range cone {
				if s.Value(int(v)) != val[v] {
					t.Fatalf("iter %d query %d: variable %d of the cone is %v in the model, %v on the circuit", iter, q, v, s.Value(int(v)), val[v])
				}
			}
		}
	}
	if sats < 200 || unsats < 200 || small < 200 {
		t.Fatalf("weak test: %d SAT answers, %d UNSAT, %d cones under half the circuit", sats, unsats, small)
	}
}

// A call that propagation decides must not ask for its scope, and one
// that reaches a decision must ask exactly once, restarts included.
func TestSolveWithinAsksForScopeLazily(t *testing.T) {
	s := New()
	c := circuit{nIn: 3, gates: [][2]Lit{
		{MkLit(0, false), MkLit(1, false)}, // 3 = x0 & x1
		{MkLit(3, false), MkLit(2, false)}, // 4 = (x0 & x1) & x2
	}}
	c.encode(s)
	asked := 0
	scope := func() []int32 { asked++; return c.cone(MkLit(4, false)) }
	if isSat, _ := s.SolveWithin(100, scope, MkLit(4, false), MkLit(0, true)); isSat {
		t.Fatal("x0 & x1 & x2 with x0 false reported satisfiable")
	}
	if asked != 0 {
		t.Fatalf("scope asked for %d times by a call propagation refutes", asked)
	}
	if isSat, _ := s.SolveWithin(100, scope, MkLit(4, true)); !isSat {
		t.Fatal("the complement of a three-input AND reported unsatisfiable")
	}
	if asked != 1 {
		t.Fatalf("scope asked for %d times by a call that decides", asked)
	}
	if !s.Solve() || !s.Solve(MkLit(4, false)) {
		t.Fatal("a solve over all variables after scoped ones went wrong")
	}
	for v := 0; v < 3; v++ {
		if !s.Value(v) {
			t.Fatalf("x%d false in a model of x0 & x1 & x2", v)
		}
	}
}

// TestSolveWarmZeroAlloc holds the search to its scratch: once warm, a
// SolveWithin allocates nothing. The queries on a circuit's cones decide
// and answer without a conflict; the budgeted ones on a pigeonhole
// formula conflict, learn, reduce the learnt clauses and compact the
// arena, whose storage is by then as large as it gets.
func TestSolveWarmZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomCircuit(rng, 8, 120)
	s := New()
	c.encode(s)
	var queries, cones [][]int32
	for range 8 {
		q := []Lit{MkLit(8+rng.Intn(120), rng.Intn(2) == 0), MkLit(8+rng.Intn(120), rng.Intn(2) == 0)}
		queries = append(queries, []int32{int32(q[0]), int32(q[1])})
		cones = append(cones, c.cone(q...))
	}
	i := 0
	scope := func() []int32 { return cones[i] }
	assume := make([]Lit, 2)
	cone := func() {
		for i = range queries {
			assume[0], assume[1] = Lit(queries[i][0]), Lit(queries[i][1])
			s.SolveWithin(1000, scope, assume...)
		}
	}

	php := New()
	pigeonhole(php, 10, 9)
	all := make([]int32, php.NumVars())
	for v := range all {
		all[v] = int32(v)
	}
	whole := func() []int32 { return all }
	conflicts := func() { php.SolveWithin(100, whole) }

	for _, q := range []struct {
		name string
		run  func()
		warm int
		s    *Solver
	}{{"cone queries", cone, 3, s}, {"conflicts", conflicts, 100, php}} {
		for range q.warm {
			q.run()
		}
		decisions := q.s.Decisions
		if allocs := testing.AllocsPerRun(50, q.run); allocs != 0 {
			t.Errorf("%s: %v allocations per warm call", q.name, allocs)
		}
		if q.s.Decisions == decisions {
			t.Errorf("weak test: %s made no decision", q.name)
		}
	}
	if php.compactions < 2 {
		t.Errorf("weak test: %d compactions", php.compactions)
	}
}
