package cut

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPackRoundTrip: at every width, a cut of every size from 0 to k —
// the constant cut's empty set included — with random sorted leaves,
// stamps up to the clock's last value and a table that ignores the
// variables at or above its size, unpacks from its stored form to
// NewCut's value, stamped, signature included; and a set of them unpacks
// to itself.
func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	universe := make([]int32, 64)
	for i := range universe {
		universe[i] = rng.Int31()
	}
	universe[0], universe[1] = 0, 1<<31-1 // the smallest and the largest node ID
	stamps := []uint32{0, 1, ^uint32(0) - 1}
	for _, k := range ks {
		var set []Cut
		for size := 0; size <= k; size++ {
			for trial := 0; trial < 200; trial++ {
				c := randomCutFrom(rng, universe, size)
				if trial < len(stamps) {
					c.Stamp = stamps[trial]
				} else {
					c.Stamp = rng.Uint32() % ^uint32(0)
				}
				w := make([]uint32, stride(k))
				pack(w, &c, k)
				var got Cut
				unpack(&got, w, k)
				if got != c {
					t.Fatalf("k = %d: %+v unpacks as %+v", k, c, got)
				}
				set = append(set, c)
			}
		}
		w := make([]uint32, len(set)*stride(k))
		for i := range set {
			pack(w[i*stride(k):], &set[i], k)
		}
		if got := unpackSet(make([]Cut, 0, len(set)), w, k, nil); !slices.Equal(got, set) {
			t.Fatalf("k = %d: a set of %d cuts does not unpack to itself", k, len(set))
		}
	}
}
