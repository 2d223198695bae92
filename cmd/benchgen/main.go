// Command benchgen writes the benchmark suite of the paper's Table 1 as
// AIGER files (cmd/exptables -table 1 prints the table itself).
//
// Usage:
//
//	benchgen -out bench/ -scale small     # write AIGER files
//	benchgen -name mult -double 3 -out .  # one circuit, doubled 3 times
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"dacpara/internal/bench"
)

func main() {
	var (
		outDir = flag.String("out", "", "directory to write AIGER files into (required)")
		scale  = flag.String("scale", "small", "tiny, small, full")
		name   = flag.String("name", "", "generate only the named benchmark")
		double = flag.Int("double", -1, "override the number of doublings")
	)
	flag.Parse()
	if *outDir == "" {
		fmt.Fprintln(os.Stderr, "usage: benchgen -out dir [-scale tiny|small|full] [-name circuit] [-double n]")
		os.Exit(2)
	}
	sc := parseScale(*scale)

	circuits := bench.Suite(sc)
	if *name != "" {
		var filtered []bench.Circuit
		for _, c := range circuits {
			if c.Name == *name {
				filtered = append(filtered, c)
			}
		}
		if len(filtered) == 0 {
			fmt.Fprintf(os.Stderr, "benchgen: unknown benchmark %q\n", *name)
			os.Exit(2)
		}
		circuits = filtered
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	for _, c := range circuits {
		if *double >= 0 {
			c.Doublings = *double
		}
		a := c.Instantiate(sc)
		path := filepath.Join(*outDir, c.Name+".aig")
		if err := a.WriteFile(path); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d ands)\n", path, a.NumAnds())
	}
}

func parseScale(s string) bench.Scale {
	switch s {
	case "tiny":
		return bench.ScaleTiny
	case "full":
		return bench.ScaleFull
	default:
		return bench.ScaleSmall
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgen:", err)
	os.Exit(1)
}
