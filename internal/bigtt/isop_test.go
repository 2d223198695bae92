package bigtt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Cofactor returns the cofactor with respect to variable v at the given
// phase, expanded over the full domain (independent of v): the primitive
// of refISOP.
func (t TT) Cofactor(v int, phase bool) TT {
	out := New(t.nvars)
	if v < 6 {
		m := wordPatterns[v]
		sh := uint(1) << v
		for i, w := range t.words {
			if phase {
				hi := w & m
				out.words[i] = hi | hi>>sh
			} else {
				lo := w &^ m
				out.words[i] = lo | lo<<sh
			}
		}
	} else {
		block := 1 << (v - 6)
		for i := range t.words {
			src := i
			if phase {
				src |= block
			} else {
				src &^= block
			}
			out.words[i] = t.words[src]
		}
	}
	out.words[0] &= WordMask(t.nvars)
	return out
}

// refISOP is the cover computation Cover replaced, kept as its oracle:
// Minato–Morreale with every cofactor expanded over the full domain into
// a fresh table and the result table rebuilt from the cubes.
func refISOP(lower, upper TT, nv int) ([]Cube, TT) {
	if lower.IsConst0() {
		return nil, New(lower.nvars)
	}
	if upper.IsConst1() {
		return []Cube{{}}, Const(lower.nvars, true)
	}
	v := nv - 1
	for v >= 0 && !lower.DependsOn(v) && !upper.DependsOn(v) {
		v--
	}
	if v < 0 {
		return []Cube{{}}, Const(lower.nvars, true)
	}
	l0, l1 := lower.Cofactor(v, false), lower.Cofactor(v, true)
	u0, u1 := upper.Cofactor(v, false), upper.Cofactor(v, true)

	cs0, t0 := refISOP(l0.AndNot(u1), u0, v)
	cs1, t1 := refISOP(l1.AndNot(u0), u1, v)
	lnew := l0.AndNot(t0).Or(l1.AndNot(t1))
	cs2, t2 := refISOP(lnew, u0.And(u1), v)

	var out []Cube
	table := t2
	nvar := Var(lower.nvars, v)
	for _, c := range cs0 {
		c.Lits |= 1 << uint(v)
		out = append(out, c)
		table = table.Or(c.Table(lower.nvars).And(nvar.Not()))
	}
	for _, c := range cs1 {
		c.Lits |= 1 << uint(v)
		c.Phase |= 1 << uint(v)
		out = append(out, c)
		table = table.Or(c.Table(lower.nvars).And(nvar))
	}
	out = append(out, cs2...)
	return out, table
}

// checkISOP holds Cover on a used scratch, Cover on a fresh one and ISOP
// to the oracle's cover, cube for cube in order, and to its table.
func checkISOP(t *testing.T, used *Scratch, on, dc TT) {
	t.Helper()
	upper := on.Or(dc)
	wantCover, wantTable := refISOP(on, upper, on.nvars)
	var fresh Scratch
	freshCover, freshTable := fresh.Cover(on, upper)
	usedCover, usedTable := used.Cover(on, upper)
	wrapCover, wrapTable := ISOP(on, dc)
	for _, got := range []struct {
		name  string
		cover []Cube
		table TT
	}{{"fresh scratch", freshCover, freshTable}, {"used scratch", usedCover, usedTable}, {"ISOP", wrapCover, wrapTable}} {
		if !slices.Equal(got.cover, wantCover) {
			t.Fatalf("%s, %d variables, on %v dc %v: cover %v, oracle %v", got.name, on.nvars, on, dc, got.cover, wantCover)
		}
		if !got.table.Equal(wantTable) {
			t.Fatalf("%s, %d variables, on %v dc %v: table %v, oracle %v", got.name, on.nvars, on, dc, got.table, wantTable)
		}
	}
}

// sparseTT has about one bit in 2^k set.
func sparseTT(rng *rand.Rand, nvars, k int) TT {
	t := randomTT(rng, nvars)
	for ; k > 0; k-- {
		t = t.And(randomTT(rng, nvars))
	}
	return t
}

func TestISOPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var used Scratch
	for nvars := 1; nvars <= 12; nvars++ {
		zero, one := New(nvars), Const(nvars, true)
		shapes := []struct {
			name   string
			on, dc func() TT
		}{
			{"dense", func() TT { return randomTT(rng, nvars) }, func() TT { return zero }},
			{"dense+dc", func() TT { return randomTT(rng, nvars) }, func() TT { return randomTT(rng, nvars) }},
			{"sparse", func() TT { return sparseTT(rng, nvars, 4) }, func() TT { return zero }},
			{"sparse+dc", func() TT { return sparseTT(rng, nvars, 3) }, func() TT { return sparseTT(rng, nvars, 2) }},
			{"nearly full", func() TT { return sparseTT(rng, nvars, 4).Not() }, func() TT { return sparseTT(rng, nvars, 4) }},
			{"const0", func() TT { return zero }, func() TT { return zero }},
			{"const0+dc", func() TT { return zero }, func() TT { return randomTT(rng, nvars) }},
			{"const1", func() TT { return one }, func() TT { return zero }},
			{"all dc", func() TT { return sparseTT(rng, nvars, 5) }, func() TT { return one }},
			{"one variable", func() TT { return Var(nvars, rng.Intn(nvars)) }, func() TT { return zero }},
			{"one literal+dc", func() TT { return Var(nvars, rng.Intn(nvars)).Not() }, func() TT { return sparseTT(rng, nvars, 2) }},
			{"few variables", func() TT {
				// Skips variables at every level of the recursion.
				a, b, c := Var(nvars, rng.Intn(nvars)), Var(nvars, rng.Intn(nvars)), Var(nvars, rng.Intn(nvars))
				return a.Xor(b).Or(c.Not())
			}, func() TT { return zero }},
		}
		iters := 40
		if nvars > 9 {
			iters = 6 // the oracle is slow
		}
		for _, sh := range shapes {
			for i := 0; i < iters; i++ {
				on := sh.on()
				checkISOP(t, &used, on, sh.dc().AndNot(on))
			}
		}
	}
}

// TestISOPWide reaches the arena's deepest recursion: tables of 14 and
// MaxVars variables, sparse enough for the oracle.
func TestISOPWide(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var used Scratch
	for _, nvars := range []int{14, MaxVars} {
		for i := 0; i < 3; i++ {
			on := sparseTT(rng, nvars, 7+i)
			checkISOP(t, &used, on, sparseTT(rng, nvars, 6).AndNot(on))
			x, y := Var(nvars, nvars-1), Var(nvars, rng.Intn(6))
			checkISOP(t, &used, x.Xor(y).And(Var(nvars, 6+rng.Intn(nvars-7))), New(nvars))
		}
	}
}

// FuzzISOP draws on and dc from the fuzzer's bytes (repeated to fill the
// table) over 1..12 variables.
func FuzzISOP(f *testing.F) {
	f.Add(uint8(3), []byte{0xE8}, []byte{0x01})
	f.Add(uint8(5), []byte{0xFF, 0xFF, 0xFF, 0x7F}, []byte{})
	f.Add(uint8(7), []byte{0x0F, 0xF0, 0x33, 0xCC, 0x55, 0xAA, 0x00, 0xFF, 0x01}, []byte{0x10, 0x00, 0x00, 0x80})
	f.Add(uint8(12), []byte{0x96, 0x69, 0x00}, []byte{0xFF, 0x00, 0x00, 0x00, 0x00})
	var used Scratch
	f.Fuzz(func(t *testing.T, n uint8, onBytes, dcBytes []byte) {
		nvars := 1 + int(n)%12
		on, dc := New(nvars), New(nvars)
		for i := 0; i < 8*len(on.words); i++ {
			if len(onBytes) > 0 {
				on.words[i/8] |= uint64(onBytes[i%len(onBytes)]) << (i % 8 * 8)
			}
			if len(dcBytes) > 0 {
				dc.words[i/8] |= uint64(dcBytes[i%len(dcBytes)]) << (i % 8 * 8)
			}
		}
		on.words[0] &= WordMask(nvars)
		dc.words[0] &= WordMask(nvars)
		checkISOP(t, &used, on, dc.AndNot(on))
	})
}

var benchCover []Cube

func BenchmarkISOP(b *testing.B) {
	for _, nvars := range []int{10, 12} {
		rng := rand.New(rand.NewSource(int64(nvars)))
		tables := make([]TT, 16)
		for i := range tables {
			tables[i] = sparseTT(rng, nvars, i%3)
		}
		b.Run(fmt.Sprintf("%dvars", nvars), func(b *testing.B) {
			var s Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := tables[i%len(tables)]
				benchCover, _ = s.Cover(f, f)
			}
		})
	}
}

func TestLargeConeWarmZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	on := randomTT(rng, 11)
	upper := on.Or(sparseTT(rng, 11, 2))
	var s Scratch
	s.Cover(on, upper)
	if n := testing.AllocsPerRun(10, func() { s.Cover(on, upper) }); n != 0 {
		t.Fatalf("warm Cover allocates %v times per call", n)
	}
}
