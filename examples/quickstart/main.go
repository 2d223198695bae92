// Quickstart: build a small circuit programmatically, rewrite it with
// DACPara, and verify the result is functionally equivalent.
package main

import (
	"context"
	"fmt"
	"log"

	"dacpara"
)

func main() {
	// Generate a 40x40 array multiplier — the paper's `mult` benchmark
	// family at a small scale.
	net, err := dacpara.Generate("mult", dacpara.ScaleTiny)
	if err != nil {
		log.Fatal(err)
	}
	before := net.Stats()

	// One job: the paper's engine at the ABC-`rewrite`-like defaults
	// (4-input cuts, 134 NPN classes, one pass), verified — every
	// rewritten circuit must be equivalent to the original: random
	// simulation screening plus a SAT proof per output. A disproved
	// result fails the run with dacpara.ErrNotEquivalent.
	out, err := dacpara.Run(context.Background(), net, dacpara.Job{Engine: dacpara.EngineDACPara, Verify: true}, dacpara.Hooks{})
	if err != nil {
		log.Fatal(err)
	}
	res, after := out.Result, net.Stats()

	fmt.Printf("circuit: %s\n", net.Name)
	fmt.Printf("area:    %d -> %d AND gates (%.1f%% reduction)\n",
		before.Ands, after.Ands, 100*float64(res.AreaReduction())/float64(before.Ands))
	fmt.Printf("delay:   %d -> %d levels\n", before.Delay, after.Delay)
	fmt.Printf("runtime: %s with %d workers (%d replacements)\n",
		res.Duration.Round(1e6), res.Threads, res.Replacements)
	fmt.Printf("equivalence: proved=%v\n", out.Verify.Proved)
}
