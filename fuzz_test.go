package dacpara

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dacpara/internal/aig"
)

// fuzzNetwork builds the random circuit a seed names: 2..12 inputs, up to
// 128 random AND/OR/XOR/MUX gates (at most a few hundred ANDs) and a few
// outputs, some of them complemented.
func fuzzNetwork(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	a := aig.New()
	lits := make([]aig.Lit, 0, 140)
	for n := 2 + rng.Intn(11); len(lits) < n; {
		lits = append(lits, a.AddPI())
	}
	pick := func() aig.Lit { return lits[rng.Intn(len(lits))].XorCompl(rng.Intn(2) == 0) }
	for steps := 16 + rng.Intn(113); steps > 0; steps-- {
		var l aig.Lit
		switch x, y := pick(), pick(); rng.Intn(4) {
		case 0:
			l = a.And(x, y)
		case 1:
			l = a.Or(x, y)
		case 2:
			l = a.Xor(x, y)
		default:
			l = a.Mux(x, y, pick())
		}
		if !l.IsConst() {
			lits = append(lits, l)
		}
	}
	for i := min(1+rng.Intn(8), len(lits)); i > 0; i-- {
		a.AddPO(lits[len(lits)-i].XorCompl(rng.Intn(2) == 0))
	}
	return a
}

// truthTables simulates net on all 2^n input assignments (n <= 12) and
// returns the outputs' truth tables one after another, 64 rows a word.
// Rows past 2^n in a single word repeat the function and compare equal.
func truthTables(net *Network) []uint64 {
	low := [6]uint64{0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0, 0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000}
	n := net.NumPIs()
	words := 1 << max(n-6, 0)
	sim := aig.NewSimulator(net)
	pi := make([]uint64, n)
	tables := make([]uint64, net.NumPOs()*words)
	for w := 0; w < words; w++ {
		for i := range pi {
			switch {
			case i < 6:
				pi[i] = low[i]
			case w>>(i-6)&1 == 1:
				pi[i] = ^uint64(0)
			default:
				pi[i] = 0
			}
		}
		for k, v := range sim.Run(pi) {
			tables[k*words+w] = v
		}
	}
	return tables
}

// FuzzEngines is the metamorphic engine test: every engine at cut widths
// 4 and 5 must turn the seed's random circuit into an aig.Check-clean
// network with the same function on every input assignment.
func FuzzEngines(f *testing.F) {
	for _, seed := range []int64{1, 2801, 2901, -7} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		golden := fuzzNetwork(seed)
		want := truthTables(golden)
		for _, eng := range Engines() {
			for _, k := range []int{4, 5} {
				what := fmt.Sprintf("seed %d, %s, k=%d", seed, eng, k)
				net := golden.Clone()
				if _, err := Rewrite(net, eng, Config{K: k, Workers: 2}); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if err := net.Check(checkOptions(eng)); err != nil {
					t.Fatalf("%s: structural check: %v", what, err)
				}
				if !slices.Equal(truthTables(net), want) {
					t.Fatalf("%s: the result is not equivalent to the input", what)
				}
			}
		}
	})
}
