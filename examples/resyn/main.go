// Resyn: the classic multi-command optimization flow (ABC's resyn2
// shape) over one circuit, showing how rewriting, refactoring and
// balancing compose — the repeated-optimization usage the paper's
// introduction motivates.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"dacpara"
)

func main() {
	name := "log2"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	net, err := dacpara.Generate(name, dacpara.ScaleTiny)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: start %v\n", name, net.Stats())

	// A verified flow job: a result that is not equivalent to the input
	// fails the run with dacpara.ErrNotEquivalent.
	out, err := dacpara.Run(context.Background(), net, dacpara.Job{Flow: dacpara.Resyn2, Verify: true}, dacpara.Hooks{})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range out.Steps {
		fmt.Printf("  %-16s area %6d -> %6d   delay %4d -> %4d   %8.3fs\n",
			r.Engine, r.InitialAnds, r.FinalAnds, r.InitialDelay, r.FinalDelay,
			r.Duration.Seconds())
	}
	fmt.Printf("final: %v\n", out.Net.Stats())
	fmt.Printf("equivalence: proved=%v\n", out.Verify.Proved)
}
