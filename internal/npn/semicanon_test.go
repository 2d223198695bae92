package npn

import (
	"math/rand"
	"testing"

	"dacpara/internal/tt"
)

// TestTransform6Algebra pins the algebra the rewriting path relies on at
// the full six variables: identity acts trivially, Compose matches
// sequential application and Inverse undoes its transform on both sides.
func TestTransform6Algebra(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 2000; iter++ {
		f := tt.Func64(rng.Uint64())
		a := randomTransform(rng, 6)
		b := randomTransform(rng, 6)
		if got := Identity.Apply(f); got != f {
			t.Fatalf("Identity(%v) = %v", f, got)
		}
		if got, want := Compose(b, a).Apply(f), b.Apply(a.Apply(f)); got != want {
			t.Fatalf("Compose mismatch: %v vs %v", got, want)
		}
		inv := a.Inverse()
		if got := inv.Apply(a.Apply(f)); got != f {
			t.Fatalf("inverse failed: %v -> %v", f, got)
		}
		if got := a.Apply(inv.Apply(f)); got != f {
			t.Fatalf("right inverse failed: %v -> %v", f, got)
		}
	}
}

// TestSemiCanonTransformMapsToRepr checks the returned transform really
// carries the input to the representative.
func TestSemiCanonTransformMapsToRepr(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 3000; iter++ {
		f := tt.Func64(rng.Uint64())
		repr, tr := SemiCanon(f)
		if got := tr.Apply(f); got != repr {
			t.Fatalf("transform does not map to repr: SemiCanon(%v) = (%v, %+v), t(f) = %v",
				f, repr, tr, got)
		}
	}
}

// TestSemiCanonInvariance is the satellite property: for random 5/6-input
// tables, the representative is unchanged under any random input
// permutation, input negation and output negation,
// SemiCanon(t) == SemiCanon(apply(t, randomPermPhase)).
func TestSemiCanonInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for iter := 0; iter < 1500; iter++ {
		f := tt.Func64(rng.Uint64()) // almost surely full 6-variable support
		if iter%3 == 0 {
			// Project to a 5-variable function to cover the k=5 regime.
			f = f.Cofactor0(5)
		}
		repr, _ := SemiCanon(f)
		for probe := 0; probe < 4; probe++ {
			g := randomTransform(rng, 6).Apply(f)
			gr, _ := SemiCanon(g)
			if gr != repr {
				t.Fatalf("orbit split: SemiCanon(%v)=%v but SemiCanon(%v)=%v", f, repr, g, gr)
			}
		}
	}
}

// TestSemiCanonInvarianceSymmetric exercises the worst-case tie
// enumeration: fully symmetric functions (parity, majority, threshold)
// branch on every condition, and their orbits must still collapse to one
// representative.
func TestSemiCanonInvarianceSymmetric(t *testing.T) {
	var parity6, maj5, thr6 tt.Func64
	for row := uint(0); row < 64; row++ {
		ones := 0
		for v := uint(0); v < 6; v++ {
			if row>>v&1 == 1 {
				ones++
			}
		}
		if ones%2 == 1 {
			parity6 |= 1 << row
		}
		// maj5 over x0..x4, independent of x5.
		low := 0
		for v := uint(0); v < 5; v++ {
			if row>>v&1 == 1 {
				low++
			}
		}
		if low >= 3 {
			maj5 |= 1 << row
		}
		if ones >= 4 {
			thr6 |= 1 << row
		}
	}
	rng := rand.New(rand.NewSource(41))
	for _, f := range []tt.Func64{parity6, parity6.Not(), maj5, thr6} {
		repr, tr := SemiCanon(f)
		if got := tr.Apply(f); got != repr {
			t.Fatalf("transform does not reach repr for %v", f)
		}
		for probe := 0; probe < 24; probe++ {
			g := randomTransform(rng, 6).Apply(f)
			if gr, _ := SemiCanon(g); gr != repr {
				t.Fatalf("symmetric orbit split: %v vs %v", gr, repr)
			}
		}
	}
}

// TestSemiCanonAgreesWithExactNarrow is the exhaustive satellite check:
// on every 4-variable table (widened to the 6-variable domain), the
// semi-canonical representative is exactly the widened full NPN canon,
// and the returned transform reaches it. Scattering the same function
// over arbitrary variables via a random transform must not change the
// representative either — the narrow path's compaction is
// orbit-consistent.
func TestSemiCanonAgreesWithExactNarrow(t *testing.T) {
	m := Shared()
	rng := rand.New(rand.NewSource(53))
	for v := 0; v < 1<<16; v++ {
		f16 := tt.Func16(v)
		f := f16.Wide()
		repr, tr := SemiCanon(f)
		if want := m.Canon(f16).Wide(); repr != want {
			t.Fatalf("f16=%04x: semi repr %v, exact canon %v", v, repr, want)
		}
		if got := tr.Apply(f); got != repr {
			t.Fatalf("f16=%04x: transform misses repr", v)
		}
		// Sampled: the same function living on shuffled/negated variables
		// (support possibly in x2..x5) still lands on the exact canon.
		if v%97 == 0 {
			g := randomTransform(rng, 6).Apply(f)
			if gr, _ := SemiCanon(g); gr != repr {
				t.Fatalf("f16=%04x: scattered orbit split: %v vs %v", v, gr, repr)
			}
		}
	}
}

// TestSemiCacheConsistency checks the memo returns exactly what SemiCanon
// computes, on hits and misses alike.
func TestSemiCacheConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	c := NewSemiCache()
	for iter := 0; iter < 500; iter++ {
		f := tt.Func64(rng.Uint64())
		wantR, wantT := SemiCanon(f)
		for pass := 0; pass < 2; pass++ { // miss, then hit
			gotR, gotT := c.Canon(f)
			if gotR != wantR || gotT != wantT {
				t.Fatalf("cache pass %d diverges for %v", pass, f)
			}
		}
	}
}
