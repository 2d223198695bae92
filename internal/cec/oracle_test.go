package cec_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dacpara"
	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/cec"
)

// firstDifference simulates a and b on all 2^n input assignments
// (n <= 16) and returns the first output that differs anywhere, or -1:
// the answer the checker's verdicts are held to. It shares nothing with
// the checker but the simulator.
func firstDifference(t *testing.T, a, b *aig.AIG) int {
	t.Helper()
	n := a.NumPIs()
	if n > 16 || n != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		t.Fatalf("exhaustive simulation of %d/%d inputs, %d/%d outputs", n, b.NumPIs(), a.NumPOs(), b.NumPOs())
	}
	// Inputs 0..5 count inside a word, the others across words.
	low := [6]uint64{0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0, 0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000}
	sa, sb := aig.NewSimulator(a), aig.NewSimulator(b)
	pi := make([]uint64, n)
	words := 1
	if n > 6 {
		words = 1 << (n - 6)
	}
	valid := ^uint64(0)
	if n < 6 {
		valid = 1<<(1<<n) - 1
	}
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
		oa, ob := sa.Run(pi), sb.Run(pi)
		for k := range oa {
			if (oa[k]^ob[k])&valid != 0 {
				return k
			}
		}
	}
	return -1
}

// differsOn reports whether output k of a and b differs on the input
// assignment.
func differsOn(a, b *aig.AIG, k int, in []bool) bool {
	pi := make([]uint64, len(in))
	for i, v := range in {
		if v {
			pi[i] = 1
		}
	}
	return (aig.NewSimulator(a).Run(pi)[k]^aig.NewSimulator(b).Run(pi)[k])&1 == 1
}

// viaAIGER returns the circuit as the benchmark's inputs arrive: written
// to binary AIGER and read back.
func viaAIGER(t testing.TB, c *aig.AIG) *aig.AIG {
	t.Helper()
	var blob bytes.Buffer
	if err := c.WriteBinary(&blob); err != nil {
		t.Fatal(err)
	}
	net, err := aig.Read(&blob)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// onePass rewrites net once with the dacpara engine on one worker.
func onePass(t testing.TB, net *aig.AIG) *aig.AIG {
	t.Helper()
	if _, err := dacpara.Rewrite(net, dacpara.EngineDACPara, dacpara.Config{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	return net
}

// The benchmark's "Known failure 1": the in-place sweep made the miter
// of this pair cyclic (aig.Check: "cycle through node 46") and the
// checker then called two equal circuits inequivalent.
func TestLog2AgainstItsRewriteIsProved(t *testing.T) {
	a := viaAIGER(t, bench.Log2(10, 4))
	b := onePass(t, viaAIGER(t, bench.Log2(10, 4)))
	if k := firstDifference(t, a, b); k >= 0 {
		t.Fatalf("the rewrite itself is wrong: output %d differs", k)
	}
	res, err := cec.Check(a, b, cec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent || !res.Proved {
		t.Fatalf("equivalent=%v proved=%v (failing output %d)", res.Equivalent, res.Proved, res.FailingOutput)
	}
}

// `rw; fraig` on these returned a cyclic network that no longer computed
// its input's function. Held to exhaustive simulation, not to
// dacpara.Equivalent, which runs the code under test. The second script
// rewrites what fraig rebuilt.
func TestFlowFraigStaysAcyclicAndExact(t *testing.T) {
	for _, bits := range []int{6, 8} {
		for _, script := range []string{"rw; fraig", "rw; fraig; rw"} {
			in := bench.Sin(bits)
			_, out, err := dacpara.Flow(in.Clone(), script, dacpara.Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := out.Check(aig.CheckOptions{}); err != nil {
				t.Errorf("sin(%d) %q: %v", bits, script, err)
				continue
			}
			if k := firstDifference(t, in, out); k >= 0 {
				t.Errorf("sin(%d) %q: output %d differs from the input network's", bits, script, k)
			}
		}
	}
}

// Reducing a miter must leave a well-formed graph whose outputs are the
// functions they were.
func TestReducedMiterIsSoundAndAcyclic(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range flowVerifiedPairs(t) {
		m := cec.Miter(p.a, p.b)
		before := aig.RandomSignature(m, rand.New(rand.NewSource(11)), 8)
		red, eff := cec.RawReduction(m, 5)
		if err := red.Check(aig.CheckOptions{}); err != nil {
			t.Errorf("%s: %v", p.name, err)
			continue
		}
		if after := aig.RandomSignature(red, rand.New(rand.NewSource(11)), 8); !slices.Equal(before, after) {
			t.Errorf("%s: the reduced miter's outputs simulate differently", p.name)
		}
		if eff.Merges == 0 {
			t.Errorf("%s: nothing merged", p.name)
		}
	}
}

// complementGateInput rebuilds c with the first fanin of its n-th AND (in
// topological order) complemented: a fault that may or may not reach an
// output, which is for the oracle to say.
func complementGateInput(c *aig.AIG, n int) *aig.AIG {
	out := aig.New()
	at := make([]aig.Lit, c.Capacity())
	for _, pi := range c.PIs() {
		at[pi] = out.AddPI()
	}
	seen := 0
	for _, id := range c.TopoOrder(nil) {
		g := c.N(id)
		if !g.IsAnd() {
			continue
		}
		f0, f1 := g.Fanin0(), g.Fanin1()
		l0 := at[f0.Node()].XorCompl(f0.Compl())
		if seen == n {
			l0 = l0.Not()
		}
		seen++
		at[id] = out.And(l0, at[f1.Node()].XorCompl(f1.Compl()))
	}
	for _, po := range c.POs() {
		out.AddPO(at[po.Node()].XorCompl(po.Compl()))
	}
	return out
}

// TestVerdictsAgreeWithExhaustiveSimulation is the differential test of
// the oracle (ROADMAP item 3): on circuits small enough to simulate
// exhaustively, the default check, the NoSweep reference path and the
// simulation agree on every pair — equivalent rewrites and faulty
// variants alike — and every counterexample replays.
func TestVerdictsAgreeWithExhaustiveSimulation(t *testing.T) {
	type circuit struct {
		name string
		net  *aig.AIG
	}
	circuits := []circuit{
		{"log2(10,4)", bench.Log2(10, 4)},
		{"log2(7,3)", bench.Log2(7, 3)},
		{"sin(8)", bench.Sin(8)},
		{"sqrt(16)", bench.Sqrt(16)},
		{"divider(8)", bench.Divider(8)},
		{"multiplier(8)", bench.Multiplier(8)},
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 4; i++ {
		circuits = append(circuits, circuit{fmt.Sprintf("random%d", i), cec.RandomAIG(rng, 8+2*i, 150+100*i, 6)})
	}
	if testing.Short() {
		circuits = circuits[6:]
	}
	scripts := []string{"rw", "b; rw; rf; b; rw -z", "rw; rs; b"}
	for _, c := range circuits {
		for si, script := range scripts {
			out, err := dacpara.Run(context.Background(), c.net.Clone(), dacpara.Job{Flow: script, Workers: 1}, dacpara.Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			opt := out.Net
			flipped := opt.Clone()
			k := rng.Intn(flipped.NumPOs())
			flipped.ReplacePO(k, flipped.PO(k).Not())
			variants := []circuit{
				{"rewrite", opt},
				{"output complemented", flipped},
				{"gate input complemented", complementGateInput(opt, rng.Intn(opt.NumAnds()))},
				{"gate input complemented", complementGateInput(opt, rng.Intn(opt.NumAnds()))},
			}
			for _, v := range variants {
				name := fmt.Sprintf("%s, %q, %s", c.name, script, v.name)
				want := firstDifference(t, c.net, v.net) < 0
				for _, opts := range []cec.Options{{Seed: int64(si)}, {Seed: int64(si), NoSweep: true}} {
					res, err := cec.Check(c.net, v.net, opts)
					if err != nil {
						t.Fatalf("%s (NoSweep=%v): %v", name, opts.NoSweep, err)
					}
					if res.Equivalent != want {
						t.Errorf("%s (NoSweep=%v): equivalent=%v, exhaustive simulation says %v", name, opts.NoSweep, res.Equivalent, want)
						continue
					}
					if !res.Equivalent && !differsOn(c.net, v.net, res.FailingOutput, res.Counterexample) {
						t.Errorf("%s (NoSweep=%v): the counterexample does not make output %d differ", name, opts.NoSweep, res.FailingOutput)
					}
					if res.Equivalent && !opts.NoSweep && !res.Proved {
						t.Errorf("%s: equivalent but not proved", name)
					}
				}
			}
		}
	}
}
