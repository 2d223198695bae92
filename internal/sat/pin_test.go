package sat

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// random3SAT adds nv variables and nc random 3-clauses to s, stopping at
// the first clause that makes the formula unsatisfiable at the root.
func random3SAT(rng *rand.Rand, s *Solver, nv, nc int) bool {
	for v := 0; v < nv; v++ {
		s.NewVar()
	}
	ok := true
	for c := 0; c < nc && ok; c++ {
		ok = s.AddClause(
			MkLit(rng.Intn(nv), rng.Intn(2) == 0),
			MkLit(rng.Intn(nv), rng.Intn(2) == 0),
			MkLit(rng.Intn(nv), rng.Intn(2) == 0),
		)
	}
	return ok
}

// pigeonhole adds PHP(pigeons, holes): every pigeon in some hole, no hole
// holding two. Unsatisfiable when pigeons > holes.
func pigeonhole(s *Solver, pigeons, holes int) {
	v := func(p, h int) int { return p*holes + h }
	for i := 0; i < pigeons*holes; i++ {
		s.NewVar()
	}
	for p := 0; p < pigeons; p++ {
		var c []Lit
		for h := 0; h < holes; h++ {
			c = append(c, MkLit(v(p, h), false))
		}
		s.AddClause(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(MkLit(v(p1, h), true), MkLit(v(p2, h), true))
			}
		}
	}
}

// pinCases are seeded formulas and call sequences that reach what the
// checker's proofs never do: thousands of conflicts on one solver, so
// that the learnt clause database is reduced, and a budget that runs out.
// Each returns the answers of its calls.
var pinCases = []struct {
	name    string
	run     func(s *Solver) string
	answers string
	// conflicts, decisions, propagations
	counts [3]int64
}{
	{"php(8,7)", func(s *Solver) string {
		pigeonhole(s, 8, 7)
		return fmt.Sprint(s.Solve())
	}, "false", [3]int64{3162, 3860, 38803}},
	{"php(10,9) out of budget twice", func(s *Solver) string {
		pigeonhole(s, 10, 9)
		var out []string
		for range 2 {
			isSat, decided := s.SolveLimited(3000)
			out = append(out, fmt.Sprint(isSat, decided))
		}
		return strings.Join(out, " ")
	}, "false false false false", [3]int64{6004, 8629, 97075}},
	{"3-sat(200) seed 3", func(s *Solver) string {
		random3SAT(rand.New(rand.NewSource(3)), s, 200, 852)
		return fmt.Sprint(s.Solve())
	}, "false", [3]int64{8080, 9711, 313760}},
	{"3-sat(200) seed 7", func(s *Solver) string {
		random3SAT(rand.New(rand.NewSource(7)), s, 200, 852)
		return fmt.Sprint(s.Solve())
	}, "true", [3]int64{8475, 10282, 330310}},
	{"3-sat(200) seed 2 under assumptions", func(s *Solver) string {
		rng := rand.New(rand.NewSource(2))
		random3SAT(rng, s, 200, 852)
		var out []string
		for range 12 {
			a := []Lit{MkLit(rng.Intn(200), rng.Intn(2) == 0), MkLit(rng.Intn(200), rng.Intn(2) == 0)}
			isSat, decided := s.SolveLimited(2000, a...)
			out = append(out, fmt.Sprint(isSat, decided))
		}
		return strings.Join(out, " ")
	}, "false false true true false true false true true true true true true true false false false true true true true true true true", [3]int64{11900, 14559, 447965}},
}

// TestSearchPinned holds the search to the counts it made before the
// solver's storage was rebuilt: the answers, conflicts, decisions and
// propagations of each case repeat exactly.
func TestSearchPinned(t *testing.T) {
	compactions := 0
	for _, c := range pinCases {
		s := New()
		answers := c.run(s)
		got := [3]int64{s.Conflicts, s.Decisions, s.Propagations}
		if answers != c.answers || got != c.counts {
			t.Errorf("%s: answers %q, conflicts/decisions/propagations %v; pinned %q, %v", c.name, answers, got, c.answers, c.counts)
		}
		t.Logf("%s: %d arena compactions", c.name, s.compactions)
		compactions += s.compactions
	}
	if compactions == 0 {
		t.Error("no case compacted the clause arena")
	}
}
