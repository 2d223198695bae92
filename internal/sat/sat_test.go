package sat

import (
	"math/rand"
	"testing"
)

func TestTrivial(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, true))
	if !s.Solve() {
		t.Fatal("satisfiable formula reported unsat")
	}
	if s.Value(a) || !s.Value(b) {
		t.Fatalf("bad model: a=%v b=%v", s.Value(a), s.Value(b))
	}
}

func TestUnsatPair(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if !s.AddClause(MkLit(a, true)) {
		return // detected at add time
	}
	if s.Solve() {
		t.Fatal("unsat formula reported sat")
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, true), MkLit(b, false)) // a -> b
	if !s.Solve(MkLit(a, false)) {
		t.Fatal("assuming a should be satisfiable")
	}
	if !s.Value(b) {
		t.Fatal("a assumed, so b must hold")
	}
	s.AddClause(MkLit(b, true))
	if s.Solve(MkLit(a, false)) {
		t.Fatal("a & !b & (a->b) should be unsat")
	}
	if !s.Solve(MkLit(a, true)) {
		t.Fatal("!a should remain satisfiable")
	}
}

// TestAgainstBruteForce cross-checks the solver against exhaustive
// enumeration on random small CNFs.
func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nv := 3 + rng.Intn(7)
		nc := 2 + rng.Intn(4*nv)
		cls := make([][]Lit, nc)
		for i := range cls {
			width := 1 + rng.Intn(3)
			for k := 0; k < width; k++ {
				cls[i] = append(cls[i], MkLit(rng.Intn(nv), rng.Intn(2) == 0))
			}
		}
		want := false
		for m := 0; m < 1<<nv; m++ {
			good := true
			for _, c := range cls {
				sat := false
				for _, l := range c {
					val := m>>l.Var()&1 == 1
					if val != l.Neg() {
						sat = true
						break
					}
				}
				if !sat {
					good = false
					break
				}
			}
			if good {
				want = true
				break
			}
		}
		s := New()
		for v := 0; v < nv; v++ {
			s.NewVar()
		}
		okAdd := true
		for _, c := range cls {
			if !s.AddClause(c...) {
				okAdd = false
				break
			}
		}
		got := okAdd && s.Solve()
		if got != want {
			t.Fatalf("iter %d: solver=%v bruteforce=%v cls=%v", iter, got, want, cls)
		}
		if got {
			// The model must satisfy every clause.
			for _, c := range cls {
				sat := false
				for _, l := range c {
					if s.Value(l.Var()) != l.Neg() {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("iter %d: model does not satisfy %v", iter, c)
				}
			}
		}
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(4,3): 4 pigeons, 3 holes — classically unsat, exercises clause
	// learning.
	s := New()
	pigeonhole(s, 4, 3)
	if s.Solve() {
		t.Fatal("pigeonhole 4/3 reported sat")
	}
}

func TestLuby(t *testing.T) {
	want := []int{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(i); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}
