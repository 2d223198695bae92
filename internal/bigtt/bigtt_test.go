package bigtt

import (
	"math/rand"
	"testing"

	"dacpara/internal/tt"
)

func randomTT(rng *rand.Rand, nvars int) TT {
	t := New(nvars)
	for i := range t.words {
		t.words[i] = rng.Uint64()
	}
	t.words[0] &= WordMask(nvars)
	return t
}

func TestAgainstFunc16(t *testing.T) {
	// For 4 variables, bigtt must agree with the tt package bit for bit.
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		a16 := tt.Func16(rng.Uint32())
		b16 := tt.Func16(rng.Uint32())
		a := from16(a16)
		b := from16(b16)
		if !a.And(b).Equal(from16(a16.And(b16))) {
			t.Fatal("And disagrees")
		}
		if !a.Or(b).Equal(from16(a16.Or(b16))) {
			t.Fatal("Or disagrees")
		}
		if !a.Xor(b).Equal(from16(a16.Xor(b16))) {
			t.Fatal("Xor disagrees")
		}
		if !a.Not().Equal(from16(a16.Not())) {
			t.Fatal("Not disagrees")
		}
		for v := 0; v < 4; v++ {
			if !a.Cofactor(v, false).Equal(from16(a16.Cofactor0(v))) {
				t.Fatalf("Cofactor0(%d) disagrees", v)
			}
			if !a.Cofactor(v, true).Equal(from16(a16.Cofactor1(v))) {
				t.Fatalf("Cofactor1(%d) disagrees", v)
			}
			if a.DependsOn(v) != a16.DependsOn(v) {
				t.Fatalf("DependsOn(%d) disagrees", v)
			}
		}
		if a.Ones() != a16.Ones() {
			t.Fatal("Ones disagrees")
		}
	}
}

func from16(f tt.Func16) TT {
	t := New(4)
	t.words[0] = uint64(f)
	return t
}

func TestVarAndEval(t *testing.T) {
	for _, nvars := range []int{3, 6, 7, 10} {
		for v := 0; v < nvars; v++ {
			tab := Var(nvars, v)
			for row := uint(0); row < 1<<nvars; row++ {
				want := row>>v&1 == 1
				if tab.Eval(row) != want {
					t.Fatalf("nvars=%d Var(%d).Eval(%d) wrong", nvars, v, row)
				}
			}
		}
	}
}

func TestShannonExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, nvars := range []int{4, 7, 9} {
		for iter := 0; iter < 30; iter++ {
			f := randomTT(rng, nvars)
			for v := 0; v < nvars; v++ {
				x := Var(nvars, v)
				re := x.And(f.Cofactor(v, true)).Or(x.Not().And(f.Cofactor(v, false)))
				if !re.Equal(f) {
					t.Fatalf("Shannon expansion on var %d fails (nvars=%d)", v, nvars)
				}
			}
		}
	}
}

func TestISOPExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, nvars := range []int{3, 5, 8, 10} {
		for iter := 0; iter < 20; iter++ {
			f := randomTT(rng, nvars)
			cover, table := ISOP(f, New(nvars))
			if !table.Equal(f) {
				t.Fatalf("nvars=%d: ISOP table mismatch", nvars)
			}
			if !CoverTable(nvars, cover).Equal(f) {
				t.Fatalf("nvars=%d: cover expands wrongly", nvars)
			}
		}
	}
}

func TestISOPInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		on := randomTT(rng, 8)
		dc := randomTT(rng, 8).AndNot(on)
		_, table := ISOP(on, dc)
		if !on.AndNot(table).IsConst0() {
			t.Fatal("cover misses onset")
		}
		if !table.AndNot(on.Or(dc)).IsConst0() {
			t.Fatal("cover exceeds interval")
		}
	}
}

func TestConstants(t *testing.T) {
	for _, nvars := range []int{2, 6, 9} {
		if !New(nvars).IsConst0() || New(nvars).IsConst1() {
			t.Fatal("zero table wrong")
		}
		if !Const(nvars, true).IsConst1() {
			t.Fatal("true table wrong")
		}
		if Const(nvars, true).Ones() != 1<<nvars {
			t.Fatal("true popcount wrong")
		}
	}
}

func TestSupportSize(t *testing.T) {
	f := Var(9, 2).Xor(Var(9, 8)).And(Var(9, 0))
	if got := f.SupportSize(); got != 3 {
		t.Fatalf("support %d, want 3", got)
	}
}

func TestCubeTable(t *testing.T) {
	c := Cube{Lits: 0b101, Phase: 0b001} // x0 & !x2
	want := Var(8, 0).And(Var(8, 2).Not())
	if !c.Table(8).Equal(want) {
		t.Fatal("cube table wrong")
	}
	if c.NumLits() != 2 {
		t.Fatal("cube literal count wrong")
	}
}
