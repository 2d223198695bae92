package aig

import "math/rand"

// Simulator evaluates the network on 64 input patterns at once, one bit
// per pattern — the standard bit-parallel simulation used for fast
// functional signatures and counterexample screening in equivalence
// checking.
type Simulator struct {
	a    *AIG
	vals []uint64
	topo []int32
}

// NewSimulator creates a simulator bound to the graph's current structure.
// Rebuild the simulator after structural changes.
func NewSimulator(a *AIG) *Simulator {
	return &Simulator{
		a:    a,
		vals: make([]uint64, a.Capacity()),
		topo: a.TopoOrder(nil),
	}
}

// Run simulates the network on the given PI pattern words (one word per
// PI, in PI order) and returns one word per PO.
func (s *Simulator) Run(piWords []uint64) []uint64 {
	a := s.a
	if len(piWords) != a.NumPIs() {
		panic("aig: wrong number of PI words")
	}
	if int32(len(s.vals)) < a.Capacity() {
		s.vals = make([]uint64, a.Capacity())
	}
	s.vals[0] = 0 // constant false
	for i, pi := range a.PIs() {
		s.vals[pi] = piWords[i]
	}
	for _, id := range s.topo {
		n := a.N(id)
		if !n.IsAnd() {
			continue
		}
		v0 := s.fetch(n.Fanin0())
		v1 := s.fetch(n.Fanin1())
		s.vals[id] = v0 & v1
	}
	out := make([]uint64, a.NumPOs())
	for k, po := range a.POs() {
		out[k] = s.fetch(po)
	}
	return out
}

func (s *Simulator) fetch(l Lit) uint64 {
	v := s.vals[l.Node()]
	if l.Compl() {
		return ^v
	}
	return v
}

// MaxSimStride is the widest word stride RunBatch accepts: 4 words = 256
// patterns per node visit. Wider strides stop paying off — the working
// set per node exceeds a cache line and the topo-walk overhead is already
// amortized.
const MaxSimStride = 4

// RunBatch simulates nw <= MaxSimStride 64-pattern vectors in one
// topological sweep. piWords holds nw words per PI, PI-major
// (piWords[i*nw+w] is word w of PI i); the result likewise holds nw words
// per PO, PO-major. One sweep over the stride-nw value array touches each
// node's fanin words as one contiguous run, so batching amortizes the
// topo-walk and fanin loads that dominate single-word simulation.
func (s *Simulator) RunBatch(piWords []uint64, nw int) []uint64 {
	a := s.a
	if nw < 1 || nw > MaxSimStride {
		panic("aig: RunBatch stride out of range")
	}
	if len(piWords) != a.NumPIs()*nw {
		panic("aig: wrong number of PI words")
	}
	need := int(a.Capacity()) * nw
	if len(s.vals) < need {
		s.vals = make([]uint64, need)
	}
	vals := s.vals
	for w := 0; w < nw; w++ {
		vals[w] = 0 // constant false
	}
	for i, pi := range a.PIs() {
		copy(vals[int(pi)*nw:int(pi)*nw+nw], piWords[i*nw:i*nw+nw])
	}
	for _, id := range s.topo {
		n := a.N(id)
		if !n.IsAnd() {
			continue
		}
		f0, f1 := n.Fanin0(), n.Fanin1()
		b0 := vals[int(f0.Node())*nw : int(f0.Node())*nw+nw]
		b1 := vals[int(f1.Node())*nw : int(f1.Node())*nw+nw]
		dst := vals[int(id)*nw : int(id)*nw+nw]
		m0, m1 := complMask(f0), complMask(f1)
		for w := 0; w < nw; w++ {
			dst[w] = (b0[w] ^ m0) & (b1[w] ^ m1)
		}
	}
	out := make([]uint64, a.NumPOs()*nw)
	for k, po := range a.POs() {
		src := vals[int(po.Node())*nw : int(po.Node())*nw+nw]
		m := complMask(po)
		for w := 0; w < nw; w++ {
			out[k*nw+w] = src[w] ^ m
		}
	}
	return out
}

// complMask returns the XOR mask implementing a literal's complement bit.
func complMask(l Lit) uint64 {
	if l.Compl() {
		return ^uint64(0)
	}
	return 0
}

// RandomSignature simulates rounds random 64-pattern vectors drawn from
// rng and returns a functional signature of all POs. Two structurally
// different graphs over the same PI ordering that compute the same
// functions always produce equal signatures for the same seed; differing
// signatures prove inequivalence.
func RandomSignature(a *AIG, rng *rand.Rand, rounds int) []uint64 {
	sim := NewSimulator(a)
	npi, npo := a.NumPIs(), a.NumPOs()
	pi := make([]uint64, npi*MaxSimStride)
	sig := make([]uint64, 0, rounds*npo)
	// Batch MaxSimStride rounds per sweep. The rng draw order (per round,
	// one word per PI) and the signature layout (per round, one word per
	// PO) are exactly those of the historical one-round-per-Run loop, so
	// signatures are stable across the batching change.
	for r := 0; r < rounds; r += MaxSimStride {
		nw := rounds - r
		if nw > MaxSimStride {
			nw = MaxSimStride
		}
		for w := 0; w < nw; w++ {
			for i := 0; i < npi; i++ {
				pi[i*nw+w] = rng.Uint64()
			}
		}
		out := sim.RunBatch(pi[:npi*nw], nw)
		for w := 0; w < nw; w++ {
			for k := 0; k < npo; k++ {
				sig = append(sig, out[k*nw+w])
			}
		}
	}
	return sig
}
