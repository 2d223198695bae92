package dacpara

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
)

const goldenLargeConePath = "testdata/golden_largecone.json"

// updateLargeCone rewrites the golden file from the code under test. The
// checked-in file was recorded before the large-cone kernel was rebuilt;
// regenerating it is a statement that refactor/resub output was meant to
// change.
var updateLargeCone = flag.Bool("update-largecone", false, "rewrite "+goldenLargeConePath)

// goldenLargeConeEntry is one row of testdata/golden_largecone.json: the
// structural digest and AND count a refactor/resub script left on one
// circuit.
type goldenLargeConeEntry struct {
	Circuit string `json:"circuit"`
	Script  string `json:"script"`
	Workers int    `json:"workers"`
	Digest  string `json:"digest"`
	Ands    int    `json:"ands"`
}

// largeConeCircuits are the six circuits of the benchmark's
// flow_verified workload plus a multiplier, under the names of the golden
// rows.
func largeConeCircuits() []*aig.AIG {
	set := append(bench.FlowVerified(), bench.Multiplier(10))
	for i, name := range []string{"sin6", "voter31", "sqrt16", "log2_7_3", "mem_ctrl1500", "mtm1500", "mult10"} {
		set[i].Name = name
	}
	return set
}

// largeConeFlow is the benchmark's flow_verified script.
const largeConeFlow = "b; rw; rf -p; b; rw; rw -z; b; rs -p; rw -z; b"

// largeConeCases are the pinned scripts: each pass at one and four
// workers, its zero-gain variant at one, and the whole benchmark flow.
var largeConeCases = []struct {
	script  string
	workers int
}{
	{"rf", 1}, {"rf", 4}, {"rf -z", 1},
	{"rs", 1}, {"rs", 4}, {"rs -z", 1},
	{largeConeFlow, 1},
}

// TestGoldenLargeCone pins the output of refactoring and resubstitution
// byte for byte. Both passes commit serially in a fixed order and
// evaluate against an immutable graph, so their result is a pure function
// of the input at any worker count (DESIGN.md, "Large-cone kernel");
// every four-worker case therefore runs twice, which also catches
// per-worker scratch leaking between goroutines. The circuits go through
// binary AIGER first, as the benchmark's inputs do.
func TestGoldenLargeCone(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	circuits := largeConeCircuits()
	var golden []goldenLargeConeEntry
	if !*updateLargeCone {
		data, err := os.ReadFile(goldenLargeConePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			t.Fatal(err)
		}
		if want := len(circuits) * len(largeConeCases); len(golden) != want {
			t.Fatalf("%d golden rows, want %d", len(golden), want)
		}
	}
	var recorded []goldenLargeConeEntry
	for ci, c := range circuits {
		var blob bytes.Buffer
		if err := c.WriteBinary(&blob); err != nil {
			t.Fatal(err)
		}
		for ki, k := range largeConeCases {
			runs := 1
			if k.workers > 1 {
				runs = 2
			}
			for run := 0; run < runs; run++ {
				net, err := aig.Read(bytes.NewReader(blob.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				out := runJob(t, net, Job{Flow: k.script, Workers: k.workers}).Net
				got := goldenLargeConeEntry{
					Circuit: c.Name, Script: k.script, Workers: k.workers,
					Digest: aig.StructuralDigest(out), Ands: out.NumAnds(),
				}
				if *updateLargeCone {
					if run == 0 {
						recorded = append(recorded, got)
					}
					continue
				}
				if want := golden[ci*len(largeConeCases)+ki]; got != want {
					t.Errorf("%s %q w%d run %d: %s (%d ANDs), golden %s (%d ANDs) for %s %q w%d",
						c.Name, k.script, k.workers, run, got.Digest, got.Ands,
						want.Digest, want.Ands, want.Circuit, want.Script, want.Workers)
				}
			}
		}
	}
	if *updateLargeCone {
		data, err := json.MarshalIndent(recorded, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenLargeConePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("wrote %d rows to %s\n", len(recorded), goldenLargeConePath)
	}
}
