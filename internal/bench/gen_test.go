package bench

import (
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
)

// evalWord extracts the integer carried by a word for pattern bit `bit`
// of the simulation outputs.
func evalWord(out []uint64, lo, n int, bit uint) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= (out[lo+i] >> bit & 1) << uint(i)
	}
	return v
}

// driveWords builds PI pattern words carrying the given operand values in
// parallel (one value per pattern slot).
func driveWords(vals [][]uint64, widths []int) []uint64 {
	total := 0
	for _, w := range widths {
		total += w
	}
	pi := make([]uint64, total)
	for slot, operands := range vals {
		off := 0
		for op, w := range widths {
			v := operands[op]
			for i := 0; i < w; i++ {
				if v>>uint(i)&1 == 1 {
					pi[off+i] |= 1 << uint(slot)
				}
			}
			off += w
		}
	}
	return pi
}

func TestAdderComputesSum(t *testing.T) {
	const n = 12
	a := Adder(n)
	rng := rand.New(rand.NewSource(1))
	var vals [][]uint64
	for s := 0; s < 64; s++ {
		vals = append(vals, []uint64{rng.Uint64() & mask(n), rng.Uint64() & mask(n)})
	}
	out := aig.NewSimulator(a).Run(driveWords(vals, []int{n, n}))
	for s := 0; s < 64; s++ {
		want := (vals[s][0] + vals[s][1]) & mask(n+1)
		got := evalWord(out, 0, n+1, uint(s))
		if got != want {
			t.Fatalf("slot %d: %d+%d = %d, want %d", s, vals[s][0], vals[s][1], got, want)
		}
	}
}

func TestMultiplierComputesProduct(t *testing.T) {
	const n = 8
	a := Multiplier(n)
	rng := rand.New(rand.NewSource(2))
	var vals [][]uint64
	for s := 0; s < 64; s++ {
		vals = append(vals, []uint64{rng.Uint64() & mask(n), rng.Uint64() & mask(n)})
	}
	out := aig.NewSimulator(a).Run(driveWords(vals, []int{n, n}))
	for s := 0; s < 64; s++ {
		want := vals[s][0] * vals[s][1]
		got := evalWord(out, 0, 2*n, uint(s))
		if got != want {
			t.Fatalf("slot %d: %d*%d = %d, want %d", s, vals[s][0], vals[s][1], got, want)
		}
	}
}

func TestSquareComputesSquare(t *testing.T) {
	const n = 7
	a := Square(n)
	var vals [][]uint64
	for s := 0; s < 64; s++ {
		vals = append(vals, []uint64{uint64(s * 2 % (1 << n))})
	}
	out := aig.NewSimulator(a).Run(driveWords(vals, []int{n}))
	for s := 0; s < 64; s++ {
		want := vals[s][0] * vals[s][0]
		got := evalWord(out, 0, 2*n, uint(s))
		if got != want {
			t.Fatalf("slot %d: %d^2 = %d, want %d", s, vals[s][0], got, want)
		}
	}
}

func TestDividerComputesQuotientRemainder(t *testing.T) {
	const n = 8
	a := Divider(n)
	rng := rand.New(rand.NewSource(3))
	var vals [][]uint64
	for s := 0; s < 64; s++ {
		den := rng.Uint64()&mask(n) | 1 // avoid divide by zero
		vals = append(vals, []uint64{rng.Uint64() & mask(n), den})
	}
	out := aig.NewSimulator(a).Run(driveWords(vals, []int{n, n}))
	for s := 0; s < 64; s++ {
		num, den := vals[s][0], vals[s][1]
		qGot := evalWord(out, 0, n, uint(s))
		rGot := evalWord(out, n, n, uint(s))
		if qGot != num/den || rGot != num%den {
			t.Fatalf("slot %d: %d/%d = (%d,%d), want (%d,%d)",
				s, num, den, qGot, rGot, num/den, num%den)
		}
	}
}

func TestSqrtComputesIntegerRoot(t *testing.T) {
	const n = 10
	a := Sqrt(n)
	rng := rand.New(rand.NewSource(4))
	var vals [][]uint64
	for s := 0; s < 64; s++ {
		vals = append(vals, []uint64{rng.Uint64() & mask(n)})
	}
	out := aig.NewSimulator(a).Run(driveWords(vals, []int{n}))
	for s := 0; s < 64; s++ {
		x := vals[s][0]
		want := isqrtModel(x)
		got := evalWord(out, 0, n/2, uint(s))
		if got != want {
			t.Fatalf("slot %d: isqrt(%d) = %d, want %d", s, x, got, want)
		}
	}
}

func isqrtModel(x uint64) uint64 {
	var r uint64
	for r*r <= x {
		r++
	}
	return r - 1
}

func TestVoterComputesMajority(t *testing.T) {
	const n = 15
	a := Voter(n)
	rng := rand.New(rand.NewSource(5))
	pi := make([]uint64, n)
	for i := range pi {
		pi[i] = rng.Uint64()
	}
	out := aig.NewSimulator(a).Run(pi)
	for s := uint(0); s < 64; s++ {
		ones := 0
		for i := 0; i < n; i++ {
			if pi[i]>>s&1 == 1 {
				ones++
			}
		}
		want := ones > n/2
		got := out[0]>>s&1 == 1
		if got != want {
			t.Fatalf("slot %d: %d ones of %d -> %v, want %v", s, ones, n, got, want)
		}
	}
}

func TestHypotenuseIsIntegerHypot(t *testing.T) {
	const n = 6
	a := Hypotenuse(n)
	var vals [][]uint64
	rng := rand.New(rand.NewSource(6))
	for s := 0; s < 64; s++ {
		vals = append(vals, []uint64{rng.Uint64() & mask(n), rng.Uint64() & mask(n)})
	}
	out := aig.NewSimulator(a).Run(driveWords(vals, []int{n, n}))
	rootBits := a.NumPOs()
	for s := 0; s < 64; s++ {
		x, y := vals[s][0], vals[s][1]
		want := isqrtModel(x*x + y*y)
		got := evalWord(out, 0, rootBits, uint(s))
		if got != want {
			t.Fatalf("slot %d: hyp(%d,%d) = %d, want %d", s, x, y, got, want)
		}
	}
}

func TestGeneratorsAreValidNetworks(t *testing.T) {
	nets := []*aig.AIG{
		Adder(16), Multiplier(10), Square(9), Divider(10), Sqrt(12),
		Sin(10), Voter(31), Log2(8, 4), Hypotenuse(8),
		MemCtrl(3000, 7), MtM("m", 5000, 3),
	}
	for _, a := range nets {
		if err := a.Check(aig.CheckOptions{}); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		if a.NumAnds() == 0 {
			t.Fatalf("%s: empty network", a.Name)
		}
	}
}

func TestControlGeneratorIsDeterministic(t *testing.T) {
	p := ControlParams{PIs: 32, Gates: 1000, POs: 16, Seed: 42, Locality: 0.5, Redundancy: 0.2}
	a := Control(p)
	b := Control(p)
	sa := aig.RandomSignature(a, rand.New(rand.NewSource(1)), 2)
	sb := aig.RandomSignature(b, rand.New(rand.NewSource(1)), 2)
	if !slices.Equal(sa, sb) {
		t.Fatal("same seed produced different networks")
	}
	c := Control(ControlParams{PIs: 32, Gates: 1000, POs: 16, Seed: 43, Locality: 0.5, Redundancy: 0.2})
	sc := aig.RandomSignature(c, rand.New(rand.NewSource(1)), 2)
	if slices.Equal(sa, sc) {
		t.Fatal("different seeds produced identical networks")
	}
}

func TestMtMProfile(t *testing.T) {
	a := MtM("sixteen", 50_000, 16)
	st := a.Stats()
	// The MtM profile: few PIs, deep.
	if st.PIs > 200 {
		t.Fatalf("MtM has %d PIs, want ~117-157", st.PIs)
	}
	if st.Delay < 50 {
		t.Fatalf("MtM depth %d, want deep", st.Delay)
	}
	if st.Ands < 45_000 {
		t.Fatalf("MtM area %d, want about 50k", st.Ands)
	}
}

func TestSuiteScalesMonotonically(t *testing.T) {
	tiny := Suite(ScaleTiny)
	small := Suite(ScaleSmall)
	if len(tiny) != len(small) || len(tiny) != 12 {
		t.Fatalf("suite sizes %d/%d, want 12", len(tiny), len(small))
	}
	for i := range tiny {
		at := tiny[i].Instantiate(ScaleTiny)
		as := small[i].Instantiate(ScaleSmall)
		if as.NumAnds() <= at.NumAnds() {
			t.Fatalf("%s: small (%d) not larger than tiny (%d)",
				small[i].Name, as.NumAnds(), at.NumAnds())
		}
	}
}
