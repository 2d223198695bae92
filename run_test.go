package dacpara

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/galois"
)

// TestRunMatrix drives the one runner over every combination of its
// two choices — engine or flow, verified or not — at one worker, where
// every engine is byte-deterministic. Each output must be aig.Check-clean
// and digest-equal to what the kept wrappers Rewrite and
// FlowResumeContext produce on the circuit.
func TestRunMatrix(t *testing.T) {
	golden, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1}
	const script = "b; rw; rf; rw -z; b"

	// viaWrapper is the reference: the kept wrapper on the network.
	viaWrapper := func(net *Network, flow bool) (*Network, error) {
		if !flow {
			_, err := Rewrite(net, EngineDACPara, cfg)
			return net, err
		}
		_, out, err := FlowResumeContext(context.Background(), net, script, cfg, 0, nil)
		return out, err
	}
	want := map[bool]string{}
	for _, flow := range []bool{false, true} {
		whole, err := viaWrapper(golden.Clone(), flow)
		if err != nil {
			t.Fatal(err)
		}
		want[flow] = aig.StructuralDigest(whole)
	}

	for _, flow := range []bool{false, true} {
		for _, verify := range []bool{false, true} {
			job := Job{Engine: EngineDACPara, Verify: verify}.WithKnobs(cfg)
			if flow {
				job.Engine, job.Flow = "", script
			}
			t.Run(fmt.Sprintf("flow=%t/verify=%t", flow, verify), func(t *testing.T) {
				out, err := Run(context.Background(), golden.Clone(), job, Hooks{})
				if err != nil {
					t.Fatal(err)
				}
				if err := out.Net.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
					t.Fatalf("structural check: %v", err)
				}
				if got, ref := aig.StructuralDigest(out.Net), want[flow]; got != ref {
					t.Fatalf("digest %s, the wrappers give %s", got, ref)
				}
				if out.Result.FinalAnds != out.Net.NumAnds() || out.Result.InitialAnds != golden.NumAnds() {
					t.Fatalf("result spans %d -> %d ANDs, run went %d -> %d",
						out.Result.InitialAnds, out.Result.FinalAnds, golden.NumAnds(), out.Net.NumAnds())
				}
				if verify != (out.Verify != nil) || (verify && !out.Verify.Equivalent) {
					t.Fatalf("verify=%t gave verdict %+v", verify, out.Verify)
				}
				if flow && len(out.Steps) != 5 {
					t.Fatalf("%d step results for a five-command script", len(out.Steps))
				}
			})
		}
	}
}

// runJob runs job on net with no hooks and fails the test on an error.
func runJob(t testing.TB, net *Network, job Job) Outcome {
	t.Helper()
	out, err := Run(context.Background(), net, job, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFlowSummaryThreads: a flow left to default its worker count
// reports the count its steps resolved it to, not the zero it was given.
func TestFlowSummaryThreads(t *testing.T) {
	net, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), net, Job{Flow: "b; rw; rf -w=3"}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if want := max(runtime.GOMAXPROCS(0), 3); out.Result.Threads != want {
		t.Fatalf("flow summary reports %d threads, its steps ran with up to %d", out.Result.Threads, want)
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
	attach := Config{Metrics: NewMetrics(), Fault: &galois.FaultPlan{AbortRate: 1, RetryBudget: 9}, Workers: 64}
	got := Job{Engine: EngineSerial}.WithKnobs(cfg).Config(attach)
	want := cfg
	want.Metrics, want.Fault = attach.Metrics, attach.Fault
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
		"engine":  {Engine: EngineSerial, Workers: 1},
		"flow":    {Flow: "b", Workers: 1},
		"workers": {Engine: EngineDACPara, Workers: 2},
		"k":       {Engine: EngineDACPara, Workers: 1, K: 5},
		"passes":  {Engine: EngineDACPara, Workers: 1, Passes: 2},
		"cuts":    {Engine: EngineDACPara, Workers: 1, MaxCuts: 8},
		"structs": {Engine: EngineDACPara, Workers: 1, MaxStructs: 5},
		"classes": {Engine: EngineDACPara, Workers: 1, Classes: 222},
		"zero":    {Engine: EngineDACPara, Workers: 1, ZeroGain: true},
		"delay":   {Engine: EngineDACPara, Workers: 1, PreserveDelay: true},
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
