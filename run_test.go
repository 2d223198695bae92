package dacpara

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/partition"
)

// TestRunMatrix drives the one runner over every combination of its four
// choices — engine or flow, plain or guarded, whole or partitioned,
// verified or not — at one worker, where every engine is byte-
// deterministic. Each output must be aig.Check-clean and digest-equal to
// what the kept wrappers Rewrite and Flow produce: on the whole circuit;
// for a partitioned job, on every shard of the same split before the
// same stitch; for a guarded job, with every rewriting command on a
// scratch clone that is adopted back, which is what the guard does (a
// clone renumbers nodes, so a guarded flow legitimately lands on a
// different graph than a plain one). Guard and partition exclude each
// other, which Run must reject before touching the network.
func TestRunMatrix(t *testing.T) {
	golden, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1}
	const script = "b; rw; rf; rw -z; b"

	// viaWrapper is the reference: the kept wrapper on one (sub-)network.
	viaWrapper := func(net *Network, flow bool) (*Network, error) {
		if !flow {
			_, err := Rewrite(net, EngineDACPara, cfg)
			return net, err
		}
		_, out, err := Flow(net, script, cfg)
		return out, err
	}
	want := map[string]string{}
	for _, flow := range []bool{false, true} {
		whole, err := viaWrapper(golden.Clone(), flow)
		if err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprint(flow, 0)] = aig.StructuralDigest(whole)
		want[fmt.Sprint(flow, 0, "guard")] = want[fmt.Sprint(flow, 0)]
		if flow {
			steps, err := ParseFlow(script)
			if err != nil {
				t.Fatal(err)
			}
			cur := golden.Clone()
			for i, cmd := range strings.Split(script, ";") {
				if steps[i].Engine == "" {
					if _, cur, err = Flow(cur, cmd, cfg); err != nil {
						t.Fatal(err)
					}
					continue
				}
				scratch := cur.Clone()
				if _, _, err := Flow(scratch, cmd, cfg); err != nil {
					t.Fatal(err)
				}
				cur.Adopt(scratch)
			}
			want[fmt.Sprint(flow, 0, "guard")] = aig.StructuralDigest(cur)
		}
		stitched, _, err := partition.Run(context.Background(), golden.Clone(), partition.RunOptions{
			Shards: 2,
			Optimize: func(_ context.Context, _ int, sub *aig.AIG) (*aig.AIG, string, error) {
				out, err := viaWrapper(sub, flow)
				return out, "wrapper", err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		want[fmt.Sprint(flow, 2)] = aig.StructuralDigest(stitched)
	}

	for _, flow := range []bool{false, true} {
		for _, guard := range []bool{false, true} {
			for _, shards := range []int{0, 2} {
				for _, verify := range []bool{false, true} {
					job := Job{Engine: EngineDACPara, Guard: guard, Partition: shards, Verify: verify}.WithKnobs(cfg)
					if flow {
						job.Engine, job.Flow = "", script
					}
					t.Run(fmt.Sprintf("flow=%t/guard=%t/partition=%d/verify=%t", flow, guard, shards, verify), func(t *testing.T) {
						net := golden.Clone()
						out, err := Run(context.Background(), net, job, Hooks{})
						if guard && shards != 0 {
							if err == nil {
								t.Fatal("guard with partition accepted")
							}
							if out.Net != net || aig.StructuralDigest(net) != aig.StructuralDigest(golden) {
								t.Fatal("rejected job touched the network")
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						if err := out.Net.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
							t.Fatalf("structural check: %v", err)
						}
						key := fmt.Sprint(flow, shards)
						if guard {
							key = fmt.Sprint(flow, shards, "guard")
						}
						if got := aig.StructuralDigest(out.Net); got != want[key] {
							t.Fatalf("digest %s, the wrappers give %s", got, want[key])
						}
						if out.Result.FinalAnds != out.Net.NumAnds() || out.Result.InitialAnds != golden.NumAnds() {
							t.Fatalf("result spans %d -> %d ANDs, run went %d -> %d",
								out.Result.InitialAnds, out.Result.FinalAnds, golden.NumAnds(), out.Net.NumAnds())
						}
						if verify != (out.Verify != nil) || (verify && !out.Verify.Equivalent) {
							t.Fatalf("verify=%t gave verdict %+v", verify, out.Verify)
						}
						if wantReports := guard; wantReports != (len(out.Reports) > 0) {
							t.Fatalf("guard=%t gave %d guard reports", guard, len(out.Reports))
						}
						if flow && shards == 0 && len(out.Steps) != 5 {
							t.Fatalf("%d step results for a five-command script", len(out.Steps))
						}
					})
				}
			}
		}
	}
}

// TestRunRejectsBeforeTouching: every Validate rejection reaches Run's
// caller with the network untouched.
func TestRunRejectsBeforeTouching(t *testing.T) {
	net, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	before := aig.StructuralDigest(net)
	for name, job := range map[string]Job{
		"unknown engine":    {Engine: "frobnicate"},
		"ablation engine":   {Engine: "dacpara-flat"},
		"engine and flow":   {Engine: EngineSerial, Flow: "b"},
		"flow typo":         {Flow: "b; rw; frobnicate"},
		"k too small":       {K: 3},
		"k too large":       {K: MaxCutWidth + 1},
		"one shard":         {Partition: 1},
		"too many shards":   {Partition: MaxPartitionShards + 1},
		"negative workers":  {Workers: -1},
		"negative deadline": {DeadlineNs: -1},
		"negative budget":   {VerifyBudget: -1},
	} {
		if err := job.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, job)
		}
		if _, err := Run(context.Background(), net, job, Hooks{}); err == nil {
			t.Errorf("%s: Run accepted %+v", name, job)
		}
	}
	if aig.StructuralDigest(net) != before {
		t.Fatal("a rejected job touched the network")
	}
}

// TestJobKnobsRoundTrip: WithKnobs and Config are inverse on the engine
// knobs, and Config passes the process-local attachments through.
func TestJobKnobsRoundTrip(t *testing.T) {
	cfg := Config{K: 5, MaxCuts: 8, MaxStructs: 5, NumClasses: 222, ZeroGain: true, PreserveDelay: true, Passes: 2, Workers: 3}
	attach := Config{Metrics: NewMetrics(), CutCache: NewCutCache(), RetryBudget: 9, Workers: 64}
	got := Job{Engine: EngineSerial}.WithKnobs(cfg).Config(attach)
	want := cfg
	want.Metrics, want.CutCache, want.RetryBudget = attach.Metrics, attach.CutCache, attach.RetryBudget
	if got != want {
		t.Fatalf("round trip gave %+v, want %+v", got, want)
	}
}

// TestJobKey: the cache key separates everything that shapes a result
// and ignores what does not.
func TestJobKey(t *testing.T) {
	base := Job{Engine: EngineDACPara, Workers: 1}
	same := base
	same.Verify, same.VerifyBudget, same.DeadlineNs, same.InputDigest = true, 1000, 5e9, "stale"
	if base.Key("d") != same.Key("d") {
		t.Fatal("verification settings, deadline or a stale InputDigest changed the key")
	}
	seen := map[string]string{base.Key("d"): "base"}
	for name, j := range map[string]Job{
		"engine":    {Engine: EngineSerial, Workers: 1},
		"flow":      {Flow: "b", Workers: 1},
		"workers":   {Engine: EngineDACPara, Workers: 2},
		"k":         {Engine: EngineDACPara, Workers: 1, K: 5},
		"passes":    {Engine: EngineDACPara, Workers: 1, Passes: 2},
		"cuts":      {Engine: EngineDACPara, Workers: 1, MaxCuts: 8},
		"structs":   {Engine: EngineDACPara, Workers: 1, MaxStructs: 5},
		"classes":   {Engine: EngineDACPara, Workers: 1, Classes: 222},
		"zero":      {Engine: EngineDACPara, Workers: 1, ZeroGain: true},
		"delay":     {Engine: EngineDACPara, Workers: 1, PreserveDelay: true},
		"seed":      {Engine: EngineDACPara, Workers: 1, Seed: 7},
		"partition": {Engine: EngineDACPara, Workers: 1, Partition: 2},
		"guard":     {Engine: EngineDACPara, Workers: 1, Guard: true},
	} {
		k := j.Key("d")
		if other, dup := seen[k]; dup {
			t.Errorf("%s and %s share a key", name, other)
		}
		seen[k] = name
	}
	if base.Key("d") == base.Key("e") {
		t.Fatal("the input digest is not part of the key")
	}
}
