// Command cec checks combinational equivalence of two AIGER circuits
// using random simulation screening, functional reduction of the miter
// and a CDCL SAT proof of whatever that leaves of each output.
//
// Usage:
//
//	cec a.aig b.aig
//	cec -sim-only big_a.aig big_b.aig
package main

import (
	"flag"
	"fmt"
	"os"

	"dacpara/internal/aig"
	"dacpara/internal/cec"
)

func main() {
	simOnly := flag.Bool("sim-only", false, "simulation screening only (no SAT proof)")
	rounds := flag.Int("rounds", 16, "simulation rounds (64 patterns each)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cec [-sim-only] a.aig b.aig")
		os.Exit(2)
	}
	a, err := aig.ReadFile(flag.Arg(0))
	fatal(err)
	b, err := aig.ReadFile(flag.Arg(1))
	fatal(err)
	res, err := cec.Check(a, b, cec.Options{SimOnly: *simOnly, SimRounds: *rounds})
	fatal(err)
	switch {
	case !res.Equivalent:
		fmt.Printf("NOT EQUIVALENT (output %d differs)\n", res.FailingOutput)
		os.Exit(1)
	case res.Proved:
		fmt.Printf("equivalent (SAT-proved, %d conflicts; sweep: %d pairs, %d merges, %d structural hits; SAT: %d calls, %d of them on outputs, %d SAT answers, %d decisions, %d propagations)\n",
			res.SATConflicts, res.Pairs, res.Merges, res.StructuralHits,
			res.SATCalls, res.OutputSATCalls, res.SATAnswers, res.Decisions, res.Propagations)
	default:
		fmt.Println("equivalent (simulation-only confidence)")
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cec:", err)
		os.Exit(1)
	}
}
