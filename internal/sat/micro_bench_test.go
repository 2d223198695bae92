package sat

import (
	"math/rand"
	"testing"
)

// BenchmarkRandom3SAT solves near-threshold random 3-SAT instances, the
// standard CDCL stress profile.
func BenchmarkRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New()
		ok := random3SAT(rng, s, 60, int(4.2*60))
		b.StartTimer()
		if ok {
			s.Solve()
		}
	}
}
