package bigtt

import (
	"math/rand"
	"testing"
)

func randomTT(rng *rand.Rand, nvars int) TT {
	t := New(nvars)
	for i := range t.words {
		t.words[i] = rng.Uint64()
	}
	t.words[0] &= WordMask(nvars)
	return t
}

// TestAgainstFunc16 holds the 4-variable case to its definition over the
// 16 rows of a table kept in a uint16.
func TestAgainstFunc16(t *testing.T) {
	bit := func(f uint16, row uint) bool { return f>>row&1 == 1 }
	rows := func(at func(row uint) bool) uint16 {
		var f uint16
		for row := uint(0); row < 16; row++ {
			if at(row) {
				f |= 1 << row
			}
		}
		return f
	}
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		a16 := uint16(rng.Uint32())
		b16 := uint16(rng.Uint32())
		a := from16(a16)
		b := from16(b16)
		if !a.And(b).Equal(from16(rows(func(r uint) bool { return bit(a16, r) && bit(b16, r) }))) {
			t.Fatal("And disagrees")
		}
		if !a.Or(b).Equal(from16(rows(func(r uint) bool { return bit(a16, r) || bit(b16, r) }))) {
			t.Fatal("Or disagrees")
		}
		if !a.Xor(b).Equal(from16(rows(func(r uint) bool { return bit(a16, r) != bit(b16, r) }))) {
			t.Fatal("Xor disagrees")
		}
		if !a.Not().Equal(from16(rows(func(r uint) bool { return !bit(a16, r) }))) {
			t.Fatal("Not disagrees")
		}
		ones := 0
		for row := uint(0); row < 16; row++ {
			if a.Eval(row) != bit(a16, row) {
				t.Fatalf("Eval(%d) disagrees", row)
			}
			if bit(a16, row) {
				ones++
			}
		}
		if a.Ones() != ones {
			t.Fatal("Ones disagrees")
		}
		for v := uint(0); v < 4; v++ {
			c0 := rows(func(r uint) bool { return bit(a16, r&^(1<<v)) })
			c1 := rows(func(r uint) bool { return bit(a16, r|1<<v) })
			if !a.Cofactor(int(v), false).Equal(from16(c0)) {
				t.Fatalf("Cofactor0(%d) disagrees", v)
			}
			if !a.Cofactor(int(v), true).Equal(from16(c1)) {
				t.Fatalf("Cofactor1(%d) disagrees", v)
			}
			if a.DependsOn(int(v)) != (c0 != c1) {
				t.Fatalf("DependsOn(%d) disagrees", v)
			}
		}
	}
}

func from16(f uint16) TT {
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
	// A function that is a single cube is covered by that cube.
	for _, nvars := range []int{4, 8} {
		f := Var(nvars, 0).AndNot(Var(nvars, 1)).And(Var(nvars, 3))
		cover, _ := ISOP(f, New(nvars))
		if want := (Cube{Lits: 0b1011, Phase: 0b1001}); len(cover) != 1 || cover[0] != want {
			t.Fatalf("nvars=%d: x0·!x1·x3 covered by %v, want %v", nvars, cover, want)
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
	for v := 0; v < 9; v++ {
		if want := v == 0 || v == 2 || v == 8; f.DependsOn(v) != want {
			t.Fatalf("DependsOn(%d) = %v, want %v", v, !want, want)
		}
	}
}

func TestCubeTable(t *testing.T) {
	c := Cube{Lits: 0b101, Phase: 0b001} // x0 & !x2
	want := Var(8, 0).And(Var(8, 2).Not())
	if !c.Table(8).Equal(want) {
		t.Fatal("cube table wrong")
	}
}
