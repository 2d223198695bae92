package rewlib

import (
	"math/rand"
	"sync"
	"testing"

	"dacpara/internal/npn"
	"dacpara/internal/tt"
)

// TestSynthesizeAll64Correct checks the synthesizer on random 5- and
// 6-variable functions: every emitted structure implements the function,
// the forest is deduplicated, sorted by node count, and capped.
func TestSynthesizeAll64Correct(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	var in [MaxInputs]tt.Func64
	for v := range in {
		in[v] = tt.Var64(v)
	}
	b := newBuilder64(MaxInputs)
	for iter := 0; iter < 60; iter++ {
		f := tt.Func64(rng.Uint64())
		if iter%2 == 0 {
			f = f.Cofactor0(5)
		}
		const cap = 6
		structs, err := b.synthesizeAll64(f, cap)
		if err != nil {
			t.Fatal(err)
		}
		if len(structs) == 0 {
			t.Fatalf("no structure for %v", f)
		}
		if len(structs) > cap {
			t.Fatalf("forest of %d exceeds cap %d", len(structs), cap)
		}
		seen := map[string]bool{}
		for si := range structs {
			s := &structs[si]
			if got := s.Eval64(in); got != f {
				t.Fatalf("structure %d computes %v, want %v", si, got, f)
			}
			if si > 0 && structs[si-1].NumNodes() > s.NumNodes() {
				t.Fatalf("forest not sorted by size at %d", si)
			}
			key := structureKey(s)
			if seen[key] {
				t.Fatalf("duplicate structure %d", si)
			}
			seen[key] = true
		}
	}
}

// TestSynthesizeAll64Deterministic: a fresh builder and one that has
// served every earlier representative must produce identical forests —
// the foundation of the generator's reproducibility guarantee, whichever
// worker's builder a class lands on.
func TestSynthesizeAll64Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	warm := newBuilder64(MaxInputs)
	for iter := 0; iter < 40; iter++ {
		f := tt.Func64(rng.Uint64())
		a, _ := newBuilder64(MaxInputs).synthesizeAll64(f, DefaultBigPerClass)
		b, _ := warm.synthesizeAll64(f, DefaultBigPerClass)
		if len(a) != len(b) {
			t.Fatalf("forest sizes differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if structureKey(&a[i]) != structureKey(&b[i]) {
				t.Fatalf("structure %d differs between runs", i)
			}
		}
	}
}

// TestBigLibraryOnDemand: the library's large-cut half — ForRepr
// synthesizes missing classes, caches them, and stays consistent under
// concurrent lookups.
func TestBigLibraryOnDemand(t *testing.T) {
	lib, err := Build(npn.Shared(), Params{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(149))
	reprs := map[tt.Func64]bool{}
	var order []tt.Func64
	for len(order) < 8 {
		r, _ := npn.SemiCanon(tt.Func64(rng.Uint64()))
		reprs[r] = true
		order = append(order, r)
	}
	var wg sync.WaitGroup
	results := make([][]Structure, 16)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[g] = lib.ForRepr(order[g%len(order)])
		}()
	}
	wg.Wait()
	for g := 0; g < 16; g++ {
		want := lib.ForRepr(order[g%len(order)])
		if len(results[g]) != len(want) || len(want) == 0 || len(want) > DefaultBigPerClass {
			t.Fatalf("goroutine %d saw %d structures, steady state %d", g, len(results[g]), len(want))
		}
		if &results[g][0] != &want[0] {
			t.Fatalf("goroutine %d was served a forest that lost the cache slot", g)
		}
	}
	if len(lib.big) != len(reprs) {
		t.Fatalf("library holds %d classes, want %d", len(lib.big), len(reprs))
	}
}
