package tt

import (
	"math/rand"
	"testing"
)

// TestWideNarrowAgainstFunc16 pins the widening invariant: a widened
// 4-variable table computes the same function, does not depend on the
// upper variables, and every connective commutes with widening.
func TestWideNarrowAgainstFunc16(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 5000; iter++ {
		f16 := Func16(rng.Uint32())
		g16 := Func16(rng.Uint32())
		f, g := f16.Wide(), g16.Wide()
		if f.DependsOn(4) || f.DependsOn(5) {
			t.Fatalf("%v widened depends on upper variables", f16)
		}
		if f.Narrow16() != f16 {
			t.Fatalf("narrow(wide(%v)) = %v", f16, f.Narrow16())
		}
		if f.And(g) != f16.And(g16).Wide() || f.Or(g) != f16.Or(g16).Wide() ||
			f.Xor(g) != f16.Xor(g16).Wide() || f.Not() != f16.Not().Wide() {
			t.Fatalf("connectives do not commute with widening for %v, %v", f16, g16)
		}
		for row := uint(0); row < 64; row++ {
			if f.Eval(row) != f16.Eval(row&15) {
				t.Fatalf("%v widened disagrees at row %d", f16, row)
			}
		}
		if 4*f16.Ones() != f.Ones() {
			t.Fatalf("%v: ones %d vs widened %d", f16, f16.Ones(), f.Ones())
		}
	}
}

// TestCofactorFlip64AgainstFunc16 checks cofactoring, flipping, support
// and XOR-decomposition against the 4-variable implementations on
// widened tables, then spot-checks the upper variables definitionally.
func TestCofactorFlip64AgainstFunc16(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 5000; iter++ {
		f16 := Func16(rng.Uint32())
		f := f16.Wide()
		for v := 0; v < 4; v++ {
			if f.Cofactor0(v) != f16.Cofactor0(v).Wide() {
				t.Fatalf("cofactor0(%d) mismatch for %v", v, f16)
			}
			if f.Cofactor1(v) != f16.Cofactor1(v).Wide() {
				t.Fatalf("cofactor1(%d) mismatch for %v", v, f16)
			}
			if f.FlipVar(v) != f16.FlipVar(v).Wide() {
				t.Fatalf("flip(%d) mismatch for %v", v, f16)
			}
			if f.DependsOn(v) != f16.DependsOn(v) {
				t.Fatalf("dependsOn(%d) mismatch for %v", v, f16)
			}
			g, ok := f.IsXorDecomposable(v)
			g16, ok16 := f16.IsXorDecomposable(v)
			if ok != ok16 || (ok && g != g16.Wide()) {
				t.Fatalf("xor-decomposition(%d) mismatch for %v", v, f16)
			}
		}
		if f.Support() != f16.Support() || f.SupportSize() != f16.SupportSize() {
			t.Fatalf("support mismatch for %v", f16)
		}
	}
	// Definitional check of the upper variables on full random tables.
	for iter := 0; iter < 2000; iter++ {
		f := Func64(rng.Uint64())
		for v := 0; v < 6; v++ {
			c0, c1, fl := f.Cofactor0(v), f.Cofactor1(v), f.FlipVar(v)
			for row := uint(0); row < 64; row++ {
				if c0.Eval(row) != f.Eval(row&^(1<<uint(v))) {
					t.Fatalf("cofactor0(%d) wrong at row %d", v, row)
				}
				if c1.Eval(row) != f.Eval(row|1<<uint(v)) {
					t.Fatalf("cofactor1(%d) wrong at row %d", v, row)
				}
				if fl.Eval(row) != f.Eval(row^1<<uint(v)) {
					t.Fatalf("flip(%d) wrong at row %d", v, row)
				}
			}
		}
	}
}

// TestPermuteVars64 checks the permutation semantics definitionally and
// its composition with the identity.
func TestPermuteVars64(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 500; iter++ {
		f := Func64(rng.Uint64())
		var perm [6]int
		for i, p := range rng.Perm(6) {
			perm[i] = p
		}
		g := f.PermuteVars(perm)
		for row := uint(0); row < 64; row++ {
			src := uint(0)
			for v := 0; v < 6; v++ {
				src |= (row >> uint(v) & 1) << uint(perm[v])
			}
			if g.Eval(row) != f.Eval(src) {
				t.Fatalf("permute %v wrong at row %d", perm, row)
			}
		}
		if f.PermuteVars([6]int{0, 1, 2, 3, 4, 5}) != f {
			t.Fatal("identity permutation changed the table")
		}
	}
}

// TestSwapVars64 checks the masked shift-swap against PermuteVars for
// every pair of variables on random tables, and that it is an involution.
func TestSwapVars64(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 2000; iter++ {
		f := Func64(rng.Uint64())
		for a := 0; a < 6; a++ {
			for b := a + 1; b < 6; b++ {
				perm := [6]int{0, 1, 2, 3, 4, 5}
				perm[a], perm[b] = b, a
				g := f.SwapVars(a, b)
				if want := f.PermuteVars(perm); g != want {
					t.Fatalf("swap(%d,%d) of %v = %v, want %v", a, b, f, g, want)
				}
				if g.SwapVars(a, b) != f {
					t.Fatalf("swap(%d,%d) twice changed %v", a, b, f)
				}
			}
		}
	}
}

// TestISOP64 checks that the cover is a function inside the interval
// and that the returned table matches the cover, including against the
// 4-variable ISOP on widened tables.
func TestISOP64(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 2000; iter++ {
		on := Func64(rng.Uint64())
		dc := Func64(rng.Uint64()) &^ on
		cover, table := ISOP64(on, dc, 6)
		if got := CoverTable64(cover); got != table {
			t.Fatalf("cover table %v, reported %v", got, table)
		}
		if on&^table != 0 {
			t.Fatalf("cover misses onset rows: on=%v table=%v", on, table)
		}
		if table&^(on|dc) != 0 {
			t.Fatalf("cover exceeds the interval: table=%v on|dc=%v", table, on|dc)
		}
	}
	// Exact covers of widened 4-variable functions agree with ISOP.
	for iter := 0; iter < 2000; iter++ {
		on16 := Func16(rng.Uint32())
		_, t16 := ISOP(on16, 0)
		_, t64 := ISOP64(on16.Wide(), 0, 6)
		if t16 != on16 || t64 != on16.Wide() {
			t.Fatalf("exact ISOP not exact: %v -> %v / %v", on16, t16, t64)
		}
	}
}
