package npn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dacpara/internal/tt"
)

func TestNumClasses(t *testing.T) {
	m := Shared()
	if m.NumClasses() != 222 {
		t.Fatalf("4-input functions form 222 NPN classes, got %d", m.NumClasses())
	}
	// Class sizes must add up to the whole function space.
	total := 0
	for _, c := range m.Classes() {
		total += c.Size
	}
	if total != 65536 {
		t.Fatalf("class sizes sum to %d, want 65536", total)
	}
}

func TestCanonIsIdempotentAndInvariant(t *testing.T) {
	m := Shared()
	err := quick.Check(func(a uint16) bool {
		f := tt.Func16(a)
		c := m.Canon(f)
		// The representative is itself canonical.
		if m.Canon(c) != c {
			return false
		}
		// The representative is the minimum of the class, so <= f.
		return c <= f
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestToCanonTransform(t *testing.T) {
	m := Shared()
	for v := 0; v < 1<<16; v++ {
		f := tt.Func16(v)
		canon := m.Canon(f).Wide()
		if got := m.ToCanon(f).Apply(f.Wide()); got != canon {
			t.Fatalf("ToCanon(%v) reaches %v, canon %v", f, got, canon)
		}
		if got := m.FromCanon(f).Apply(canon); got != f.Wide() {
			t.Fatalf("FromCanon(%v) reaches %v from canon %v", f, got, canon)
		}
	}
}

func TestCanonInvariantUnderRandomTransforms(t *testing.T) {
	m := Shared()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		f := tt.Func16(rng.Uint32())
		tr := randomTransform(rng, 4)
		g := tr.Apply(f.Wide()).Narrow16()
		if m.Canon(g) != m.Canon(f) {
			t.Fatalf("canonical form not invariant: f=%v tr=%+v", f, tr)
		}
		if m.ClassIndex(g) != m.ClassIndex(f) {
			t.Fatal("class index not invariant")
		}
	}
}

// randomTransform draws a transform that permutes and flips the first nv
// variables and is the identity on the rest.
func randomTransform(rng *rand.Rand, nv int) Transform {
	tr := Identity
	for i, p := range rng.Perm(nv) {
		tr.Perm[i] = uint8(p)
	}
	tr.Flip = uint8(rng.Intn(1 << nv))
	tr.Neg = rng.Intn(2) == 1
	return tr
}

// refApply is the definition of Transform.Apply written out row by row:
// g(x0..x5) = Neg XOR f(y0..y5) with y_i = x_{Perm[i]} XOR bit i of Flip.
// It was Apply until the word-operation form replaced it.
func refApply(tr Transform, f tt.Func64) tt.Func64 {
	var out tt.Func64
	for row := uint(0); row < 64; row++ {
		src := uint(0)
		for i := uint(0); i < 6; i++ {
			bit := row >> uint(tr.Perm[i]) & 1
			bit ^= uint(tr.Flip) >> i & 1
			src |= bit << i
		}
		bit := uint64(f) >> src & 1
		if tr.Neg {
			bit ^= 1
		}
		out |= tt.Func64(bit) << row
	}
	return out
}

// TestApplyMatchesRowLoop holds the word-operation Apply to the row loop
// on random 6-variable transforms and tables; TestToCanonTransform is the
// exhaustive 4-variable half.
func TestApplyMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200000; i++ {
		tr, f := randomTransform(rng, 6), tt.Func64(rng.Uint64())
		if got, want := tr.Apply(f), refApply(tr, f); got != want {
			t.Fatalf("%+v on %v: %v, row loop %v", tr, f, got, want)
		}
	}
}

// refApply16 is the action of a 4-variable transform written out over the
// 16 rows of a Func16: g(x0..x3) = Neg XOR f(y0..y3) with
// y_i = x_{Perm[i]} XOR bit i of Flip.
func refApply16(tr Transform, f tt.Func16) tt.Func16 {
	var out tt.Func16
	for row := uint(0); row < 16; row++ {
		src := uint(0)
		for i := uint(0); i < 4; i++ {
			bit := row >> uint(tr.Perm[i]) & 1
			bit ^= uint(tr.Flip) >> i & 1
			src |= bit << i
		}
		bit := uint16(f) >> src & 1
		if tr.Neg {
			bit ^= 1
		}
		out |= tt.Func16(bit) << row
	}
	return out
}

// TestTransformGroupLaws holds the one transform at four variables to the
// 16-row reference: a transform that is the identity on x4 and x5 keeps a
// widened table widened and acts on it as the reference does, and
// composition and inversion stay inside the 4-variable group.
func TestTransformGroupLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		a := randomTransform(rng, 4)
		b := randomTransform(rng, 4)
		f := tt.Func16(rng.Uint32())
		if got, want := a.Apply(f.Wide()), refApply16(a, f).Wide(); got != want {
			t.Fatalf("a=%+v on %v: %v, reference %v", a, f, got, want)
		}
		// Composition law.
		if got, want := Compose(b, a).Apply(f.Wide()), refApply16(b, refApply16(a, f)).Wide(); got != want {
			t.Fatalf("compose law broken: a=%+v b=%+v", a, b)
		}
		// Inverse law.
		if refApply16(a.Inverse(), refApply16(a, f)) != f {
			t.Fatalf("inverse law broken: a=%+v", a)
		}
		if refApply16(a, refApply16(a.Inverse(), f)) != f {
			t.Fatalf("inverse law (other side) broken: a=%+v", a)
		}
		for _, tr := range []Transform{Compose(b, a), a.Inverse()} {
			if tr.Perm[4] != 4 || tr.Perm[5] != 5 || tr.Flip>>4 != 0 {
				t.Fatalf("%+v moves x4 or x5", tr)
			}
		}
	}
	// Identity behaves.
	if refApply16(Identity, tt.Var1) != tt.Var1 {
		t.Fatal("identity transform changed a function")
	}
}

func TestTransformSemantics(t *testing.T) {
	// A pure permutation transform must agree with PermuteVars: with
	// g = T(f) and y_i = x_{Perm[i]}, input i of f reads variable Perm[i].
	tr := Identity
	tr.Perm[0], tr.Perm[1] = 1, 0
	if got := tr.Apply(tt.Var64(0)); got != tt.Var64(1) {
		t.Fatalf("permuted x0 = %v, want x1", got)
	}
	tr = Identity
	tr.Perm[2], tr.Perm[5] = 5, 2
	if got := tr.Apply(tt.Var64(2)); got != tt.Var64(5) {
		t.Fatalf("permuted x2 = %v, want x5", got)
	}
	// Input flips complement the variable feeding that input.
	for _, v := range []int{0, 4} {
		tr = Identity
		tr.Flip = 1 << uint(v)
		if got := tr.Apply(tt.Var64(v)); got != tt.Var64(v).Not() {
			t.Fatalf("flipped x%d = %v", v, got)
		}
	}
	// Output negation.
	tr = Identity
	tr.Neg = true
	if got := tr.Apply(tt.Var64(2)); got != tt.Var64(2).Not() {
		t.Fatalf("negated x2 = %v", got)
	}
}

func TestKnownClassMembers(t *testing.T) {
	m := Shared()
	// All single variables (and their complements) are NPN-equivalent.
	cls := m.ClassIndex(tt.Var0)
	for v, x := range []tt.Func16{tt.Var0, tt.Var1, tt.Var2, tt.Var3} {
		if m.ClassIndex(x) != cls {
			t.Fatalf("Var%d not in Var0's class", v)
		}
		if m.ClassIndex(^x) != cls {
			t.Fatalf("!Var%d not in Var0's class", v)
		}
	}
	// AND2 and OR2 are NPN-equivalent (de Morgan), XOR2 is not.
	and2 := tt.Var0 & tt.Var1
	or2 := tt.Var0 | tt.Var1
	xor2 := tt.Var0 ^ tt.Var1
	if m.ClassIndex(and2) != m.ClassIndex(or2) {
		t.Fatal("AND2 and OR2 must share a class")
	}
	if m.ClassIndex(and2) == m.ClassIndex(xor2) {
		t.Fatal("AND2 and XOR2 must not share a class")
	}
	// Constants form their own class of size 2.
	cc := m.Classes()[m.ClassIndex(tt.False)]
	if cc.Size != 2 {
		t.Fatalf("constant class size %d, want 2", cc.Size)
	}
}
