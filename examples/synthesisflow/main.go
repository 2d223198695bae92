// Synthesisflow: a realistic multi-pass optimization flow over the
// arithmetic benchmark family — the workload the paper's introduction
// motivates ("logic rewriting techniques are often applied many times for
// optimization due to its local optimality").
//
// The flow generates each circuit, applies `double` scaling as the paper
// does, runs three DACPara passes as one flow job, and verifies the final
// netlist against the original through the job's own check.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"dacpara"
)

func main() {
	circuits := []string{"sin", "square", "mult", "voter", "div"}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "circuit\tarea\tpass1\tpass2\tpass3\tfinal delay\ttotal time\tproved")

	for _, name := range circuits {
		net, err := dacpara.Generate(name, dacpara.ScaleTiny)
		if err != nil {
			log.Fatal(err)
		}
		initial := net.Stats()

		// Rewrite three times: rewriting is locally optimal, so later
		// passes exploit the opportunities earlier replacements exposed.
		// Verify checks the final netlist against the input; a
		// non-equivalent result fails the run with
		// dacpara.ErrNotEquivalent.
		job := dacpara.Job{Flow: "rw; rw; rw", Verify: true}
		out, err := dacpara.Run(context.Background(), net, job, dacpara.Hooks{})
		if err != nil {
			log.Fatal(err)
		}
		s := out.Steps
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.2fs\t%v\n",
			name, initial.Ands, s[0].FinalAnds, s[1].FinalAnds, s[2].FinalAnds,
			out.Net.Stats().Delay, out.Result.Duration.Seconds(), out.Verify.Proved)
	}
	w.Flush()
}
