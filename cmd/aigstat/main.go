// Command aigstat prints network statistics for AIGER files: PI/PO/AND
// counts, delay (depth), and a level histogram — the per-level worklist
// sizes DACPara's nodeDividing would produce.
//
// With -json it emits one JSON object per file using the same field
// names as the dacparad job-status payload (pi, po, and, delay — see
// aig.Stats), so scripts and the daemon share one schema.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"dacpara/internal/aig"
	"dacpara/internal/engine"
)

// fileStat is the -json record: the job status's aig.Stats schema plus the
// file name, the structural digest (the service's cache-key input half),
// and optionally the level histogram.
type fileStat struct {
	File string `json:"file"`
	aig.Stats
	Digest string `json:"digest,omitempty"`
	Levels []int  `json:"levels,omitempty"`
}

func main() {
	hist := flag.Bool("levels", false, "print the level histogram (DACPara worklist sizes)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON (job-status field names)")
	digest := flag.Bool("digest", false, "with -json: include the structural digest dacparad keys its result cache by")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: aigstat [-levels] [-json [-digest]] file.aig ...")
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	for _, path := range flag.Args() {
		a, err := aig.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aigstat:", err)
			os.Exit(1)
		}
		if *asJSON {
			st := fileStat{File: path, Stats: a.Stats()}
			if *digest {
				st.Digest = aig.StructuralDigest(a)
			}
			if *hist {
				for _, wl := range engine.ByLevel(a) {
					st.Levels = append(st.Levels, len(wl))
				}
			}
			if err := enc.Encode(st); err != nil {
				fmt.Fprintln(os.Stderr, "aigstat:", err)
				os.Exit(1)
			}
			continue
		}
		st := a.Stats()
		fmt.Printf("%s: pi=%d po=%d and=%d delay=%d\n", path, st.PIs, st.POs, st.Ands, st.Delay)
		if *hist {
			for lv, wl := range engine.ByLevel(a) {
				fmt.Printf("  level %4d: %d nodes\n", lv+1, len(wl))
			}
		}
	}
}
