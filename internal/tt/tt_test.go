package tt

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// The 4-variable reference: every operation written out row by row over
// the 16 rows of a Func16, the definition the word operations on widened
// (replicated) tables are held to.

func bit16(f Func16, row uint) bool { return f>>(row&15)&1 == 1 }

// map16 builds the 4-variable table whose row r holds f's row src(r).
func map16(f Func16, src func(row uint) uint) Func16 {
	var out Func16
	for row := uint(0); row < 16; row++ {
		if bit16(f, src(row)) {
			out |= 1 << row
		}
	}
	return out
}

func refCofactor16(f Func16, v int, phase bool) Func16 {
	return map16(f, func(row uint) uint {
		if phase {
			return row | 1<<uint(v)
		}
		return row &^ (1 << uint(v))
	})
}

func refFlip16(f Func16, v int) Func16 {
	return map16(f, func(row uint) uint { return row ^ 1<<uint(v) })
}

// refPermute16 renames variables as PermuteVars does: variable v of the
// result behaves as variable perm[v] of f.
func refPermute16(f Func16, perm [4]int) Func16 {
	return map16(f, func(row uint) uint {
		src := uint(0)
		for v := 0; v < 4; v++ {
			src |= (row >> uint(v) & 1) << uint(perm[v])
		}
		return src
	})
}

func TestVarTables(t *testing.T) {
	for v := 0; v < MaxVars64; v++ {
		for row := uint(0); row < 64; row++ {
			want := row>>uint(v)&1 == 1
			if got := Var64(v).Eval(row); got != want {
				t.Fatalf("Var64(%d).Eval(%d) = %v, want %v", v, row, got, want)
			}
		}
	}
	for v, f16 := range []Func16{Var0, Var1, Var2, Var3} {
		if f16.Wide() != Var64(v) {
			t.Fatalf("Var%d widens to %v, want %v", v, f16.Wide(), Var64(v))
		}
	}
	if False.Wide() != False64 || True.Wide() != True64 {
		t.Fatal("constants do not widen to constants")
	}
}

func TestBooleanOps(t *testing.T) {
	err := quick.Check(func(a, b uint64) bool {
		f, g := Func64(a), Func64(b)
		for row := uint(0); row < 64; row++ {
			if f.And(g).Eval(row) != (f.Eval(row) && g.Eval(row)) {
				return false
			}
			if f.Or(g).Eval(row) != (f.Eval(row) || g.Eval(row)) {
				return false
			}
			if f.Xor(g).Eval(row) != (f.Eval(row) != g.Eval(row)) {
				return false
			}
			if f.Not().Eval(row) == f.Eval(row) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCofactors(t *testing.T) {
	err := quick.Check(func(a uint64, narrow bool, v0 uint8) bool {
		f, nv := Func64(a), MaxVars64
		if narrow {
			f, nv = Func16(a).Wide(), 4
		}
		v := int(v0) % nv
		c0, c1 := f.Cofactor0(v), f.Cofactor1(v)
		// Cofactors do not depend on v.
		if c0.DependsOn(v) || c1.DependsOn(v) {
			return false
		}
		// Shannon expansion reconstructs f.
		shannon := Var64(v).And(c1).Or(Var64(v).Not().And(c0))
		return shannon == f
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSupport(t *testing.T) {
	if Var64(0).Support() != 1 || Var64(3).Support() != 8 || Var64(5).Support() != 32 {
		t.Fatalf("variable supports wrong: %b %b %b", Var64(0).Support(), Var64(3).Support(), Var64(5).Support())
	}
	if False64.Support() != 0 || True64.Support() != 0 {
		t.Fatal("constants must have empty support")
	}
	f := Var64(0).Xor(Var64(2))
	if f.Support() != 0b0101 {
		t.Fatalf("x0^x2 support = %b", f.Support())
	}
}

func TestPermuteVars(t *testing.T) {
	// Swapping x0 and x1 maps x0 to x1.
	if got := Var64(0).PermuteVars([6]int{1, 0, 2, 3, 4, 5}); got != Var64(1) {
		t.Fatalf("permuted x0 = %v, want %v", got, Var64(1))
	}
	// Permutation is a bijection on functions: applying perm and its
	// inverse round-trips.
	err := quick.Check(func(a uint64) bool {
		f := Func64(a)
		p := [6]int{2, 5, 3, 1, 0, 4}
		inv := [6]int{}
		for i, x := range p {
			inv[x] = i
		}
		return f.PermuteVars(p).PermuteVars(inv) == f
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlipVar(t *testing.T) {
	err := quick.Check(func(a uint64, v0 uint8) bool {
		f := Func64(a)
		v := int(v0 % MaxVars64)
		g := f.FlipVar(v)
		// Flipping twice is identity.
		if g.FlipVar(v) != f {
			return false
		}
		// g(x) = f(x with bit v flipped).
		for row := uint(0); row < 64; row++ {
			if g.Eval(row) != f.Eval(row^(1<<uint(v))) {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestXorDecomposable(t *testing.T) {
	for _, vars := range [][3]int{{1, 2, 3}, {5, 0, 4}} {
		x, y, z := Var64(vars[0]), Var64(vars[1]), Var64(vars[2])
		f := x.Xor(y.And(z))
		g, ok := f.IsXorDecomposable(vars[0])
		if !ok {
			t.Fatalf("x%d ^ (x%d&x%d) must be XOR-decomposable on x%d", vars[0], vars[1], vars[2], vars[0])
		}
		if got := x.Xor(g); got != f {
			t.Fatalf("decomposition does not reconstruct: %v", got)
		}
		if _, ok := x.And(y).IsXorDecomposable(vars[0]); ok {
			t.Fatalf("x%d & x%d is not XOR-decomposable on x%d", vars[0], vars[1], vars[0])
		}
	}
}

func TestStringForms(t *testing.T) {
	if Var0.String() != "0xAAAA" {
		t.Fatalf("Var0 string %q", Var0.String())
	}
	if Var64(5).String() != "0xFFFFFFFF00000000" {
		t.Fatalf("x5 string %q", Var64(5).String())
	}
}

func TestOnesAndConst(t *testing.T) {
	if False64.Ones() != 0 || True64.Ones() != 64 || Var64(0).Ones() != 32 {
		t.Fatal("popcounts wrong")
	}
	if !False64.IsConst() || !True64.IsConst() || Var64(0).IsConst() {
		t.Fatal("IsConst wrong")
	}
}

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
		if f.And(g) != (f16&g16).Wide() || f.Or(g) != (f16|g16).Wide() ||
			f.Xor(g) != (f16^g16).Wide() || f.Not() != (^f16).Wide() {
			t.Fatalf("connectives do not commute with widening for %v, %v", f16, g16)
		}
		for row := uint(0); row < 64; row++ {
			if f.Eval(row) != bit16(f16, row) {
				t.Fatalf("%v widened disagrees at row %d", f16, row)
			}
		}
		if 4*bits.OnesCount16(uint16(f16)) != f.Ones() {
			t.Fatalf("%v: ones %d vs widened %d", f16, bits.OnesCount16(uint16(f16)), f.Ones())
		}
	}
}

// TestCofactorFlip64AgainstFunc16 checks cofactoring, flipping, support
// and XOR-decomposition on widened tables against the 16-row reference,
// then checks all six variables definitionally on full tables.
func TestCofactorFlip64AgainstFunc16(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 5000; iter++ {
		f16 := Func16(rng.Uint32())
		if iter%5 == 0 {
			// XOR-decomposable on x1, which a random table never is.
			f16 = Var1 ^ refCofactor16(f16, 1, false)
		}
		f := f16.Wide()
		var sup uint
		for v := 0; v < 4; v++ {
			c0, c1 := refCofactor16(f16, v, false), refCofactor16(f16, v, true)
			if f.Cofactor0(v) != c0.Wide() {
				t.Fatalf("cofactor0(%d) mismatch for %v", v, f16)
			}
			if f.Cofactor1(v) != c1.Wide() {
				t.Fatalf("cofactor1(%d) mismatch for %v", v, f16)
			}
			if f.FlipVar(v) != refFlip16(f16, v).Wide() {
				t.Fatalf("flip(%d) mismatch for %v", v, f16)
			}
			if f.DependsOn(v) != (c0 != c1) {
				t.Fatalf("dependsOn(%d) mismatch for %v", v, f16)
			}
			if c0 != c1 {
				sup |= 1 << uint(v)
			}
			g, ok := f.IsXorDecomposable(v)
			if ok != (c0 == ^c1) || (ok && g != c0.Wide()) {
				t.Fatalf("xor-decomposition(%d) mismatch for %v", v, f16)
			}
		}
		if f.Support() != sup {
			t.Fatalf("support mismatch for %v", f16)
		}
	}
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

// TestPermuteVars64 checks the permutation semantics definitionally, on
// widened tables against the 16-row reference, and its composition with
// the identity.
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

		f16 := Func16(rng.Uint32())
		var perm4 [4]int
		wide := [6]int{4: 4, 5: 5}
		for i, p := range rng.Perm(4) {
			perm4[i], wide[i] = p, p
		}
		if got, want := f16.Wide().PermuteVars(wide), refPermute16(f16, perm4).Wide(); got != want {
			t.Fatalf("permute %v of widened %v = %v, want %v", perm4, f16, got, want)
		}
	}
}

// TestSwapVars64 checks the masked shift-swap against PermuteVars for
// every pair of variables on random tables, on widened tables against
// the 16-row reference, and that it is an involution.
func TestSwapVars64(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for iter := 0; iter < 2000; iter++ {
		f := Func64(rng.Uint64())
		f16 := Func16(rng.Uint32())
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
				if b < 4 {
					perm4 := [4]int{perm[0], perm[1], perm[2], perm[3]}
					if got, want := f16.Wide().SwapVars(a, b), refPermute16(f16, perm4).Wide(); got != want {
						t.Fatalf("swap(%d,%d) of widened %v = %v, want %v", a, b, f16, got, want)
					}
				}
			}
		}
	}
}
