package cec

import (
	"math/rand"

	"dacpara/internal/aig"
)

// RawReduction returns the functional reduction of src as the reducer
// leaves it — merged-away nodes included — with src's outputs attached,
// for the tests of the external test package.
func RawReduction(src *aig.AIG, seed int64) (*aig.AIG, Effort) {
	r, outs := reduce(src, rand.New(rand.NewSource(seed)))
	for _, po := range outs {
		r.dst.AddPO(po)
	}
	return r.dst, r.eff
}

// RandomAIG is cec_test.go's generator of random AND/XOR networks.
var RandomAIG = randomAIG
