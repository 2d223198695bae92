package cec

import (
	"math/rand"

	"dacpara/internal/aig"
)

// FraigOptions tune functional reduction.
type FraigOptions struct {
	// Seed drives the simulation patterns.
	Seed int64
}

// FraigResult reports a functional-reduction pass.
type FraigResult struct {
	InitialAnds, FinalAnds int
	// Merged counts the SAT-proved equivalent nodes folded together.
	Merged int
}

// Reduced performs functional reduction: simulation groups nodes into
// candidate equivalence classes and budgeted SAT calls prove and merge
// them (ABC's `fraig`). Rewriting is structural and local; fraiging
// catches functionally equivalent cones rewriting cannot see, and flows
// commonly run it between optimization passes. It returns the reduction
// of a as a new network with a's strash option, compacted to the logic
// its outputs read; a itself is left as it was. It is built out of place
// (see reducer), which is why it cannot come out cyclic.
func Reduced(a *aig.AIG, opts FraigOptions) (*aig.AIG, FraigResult) {
	res := FraigResult{InitialAnds: a.NumAnds()}
	r, outs := reduce(a, rand.New(rand.NewSource(opts.Seed+0xF4A16)))
	if err := r.enc.finish(&r.eff); err != nil {
		panic(err) // only a bug in the solver or the encoding gets here
	}
	res.Merged = r.eff.Merges

	// Copy what the outputs reach. ANDs follow the inputs in ID order
	// and that order is topological.
	d := r.dst
	out := aig.New(aig.Options{CapacityHint: a.NumPIs() + d.NumAnds()})
	out.Name = a.Name
	at := make([]aig.Lit, d.Capacity())
	for _, pi := range d.PIs() {
		at[pi] = out.AddPI()
	}
	live := make([]bool, d.Capacity())
	for _, po := range outs {
		live[po.Node()] = true
	}
	first := int32(d.NumPIs()) + 1
	for id := d.Capacity() - 1; id >= first; id-- {
		if n := d.N(id); live[id] {
			live[n.Fanin0().Node()], live[n.Fanin1().Node()] = true, true
		}
	}
	for id := first; id < d.Capacity(); id++ {
		if n := d.N(id); live[id] {
			f0, f1 := n.Fanin0(), n.Fanin1()
			at[id] = out.And(at[f0.Node()].XorCompl(f0.Compl()), at[f1.Node()].XorCompl(f1.Compl()))
		}
	}
	for _, po := range outs {
		out.AddPO(at[po.Node()].XorCompl(po.Compl()))
	}
	res.FinalAnds = out.NumAnds()
	return out, res
}
