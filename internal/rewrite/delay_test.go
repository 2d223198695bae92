package rewrite

import (
	"context"
	"math/rand"
	"testing"
)

// TestPreserveDelayNeverDeepens: with PreserveDelay set, rewriting must
// not increase the network depth.
func TestPreserveDelayNeverDeepens(t *testing.T) {
	lib := testLib(t)
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := randomAIG(t, rng, 8, 500, 8)
		res, err := Run(context.Background(), EngineSerial, a, lib, Config{PreserveDelay: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalDelay > res.InitialDelay {
			t.Fatalf("seed %d: delay %d -> %d under PreserveDelay",
				seed, res.InitialDelay, res.FinalDelay)
		}
		if res.FinalAnds > res.InitialAnds {
			t.Fatalf("seed %d: area grew", seed)
		}
	}
}
