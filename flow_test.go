package dacpara

import (
	"context"
	"errors"
	"strings"
	"testing"

	"dacpara/internal/aig"
)

func TestFlowResyn2(t *testing.T) {
	net, err := Generate("sin", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	golden := net.Clone()
	initial := net.Stats()
	results, final, err := Flow(net, Resyn2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(strings.Split(Resyn2, ";")) {
		t.Fatalf("expected one result per command, got %d", len(results))
	}
	st := final.Stats()
	if st.Ands >= initial.Ands {
		t.Fatalf("resyn2 did not reduce area: %d -> %d", initial.Ands, st.Ands)
	}
	eq, err := Equivalent(golden, final)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("flow broke equivalence")
	}
}

// TestFlowIsItsStepsInSequence: a flow carries no state from one step to
// the next, so it lands on the network its steps build when each runs as
// a flow of its own — across two rewrites of one graph, the parallel
// refactor and resub, and the graph rebuilds of fraig and balance. One
// worker: dacpara at Workers > 1 is not byte-deterministic on a
// multi-core host.
func TestFlowIsItsStepsInSequence(t *testing.T) {
	net, err := Generate("sin", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	const script = "rw; rw -z; rf -p; rs -p; fraig; b; rw"

	_, whole, err := Flow(net.Clone(), script, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	stepwise := net.Clone()
	for _, step := range strings.Split(script, ";") {
		var ferr error
		if _, stepwise, ferr = Flow(stepwise, step, Config{Workers: 1}); ferr != nil {
			t.Fatal(ferr)
		}
	}

	if dw, ds := aig.StructuralDigest(whole), aig.StructuralDigest(stepwise); dw != ds {
		t.Fatalf("the flow differs from its steps run one at a time: %s vs %s (%d vs %d ANDs)",
			dw, ds, whole.NumAnds(), stepwise.NumAnds())
	}
}

func TestFlowBalanceReducesDepth(t *testing.T) {
	// A skewed AND chain balances to logarithmic depth through the flow.
	net := NewNetwork()
	acc := net.AddPI()
	for i := 1; i < 32; i++ {
		acc = net.And(acc, net.AddPI())
	}
	net.AddPO(acc)
	_, final, err := Flow(net, "balance", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if final.Delay() != 5 {
		t.Fatalf("balanced 32-AND chain depth %d, want 5", final.Delay())
	}
}

func TestFlowRejectsUnknownCommands(t *testing.T) {
	net, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Flow(net, "balance; frobnicate", Config{}); err == nil {
		t.Fatal("unknown command accepted")
	}
	if _, _, err := Flow(net, "rewrite -q", Config{}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestFlowValidatesWholeScriptUpFront(t *testing.T) {
	// A typo in the LAST command must be rejected before the FIRST command
	// touches the network.
	net, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	before := net.NumAnds()
	if _, _, err := Flow(net, "rewrite; balance; frobnicate", Config{}); err == nil {
		t.Fatal("unknown trailing command accepted")
	}
	if net.NumAnds() != before {
		t.Fatalf("network mutated before script validation failed: %d -> %d ands", before, net.NumAnds())
	}
	if _, err := ParseFlow("balance -z"); err == nil {
		t.Fatal("-z on balance accepted")
	}
	steps, err := ParseFlow("balance; rewrite -z; iccad18")
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 3 || steps[1].Engine != EngineDACPara || !steps[1].ZeroGain || steps[2].Engine != EngineLockPar {
		t.Fatalf("parsed steps %+v", steps)
	}
}

func TestFlowEngineCommands(t *testing.T) {
	net, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	golden := net.Clone()
	results, final, err := Flow(net, "abc; iccad18; dacpara", Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results", len(results))
	}
	eq, err := Equivalent(golden, final)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("engine sequence broke equivalence")
	}
}

func TestRefactorFacade(t *testing.T) {
	net, err := Generate("log2", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	golden := net.Clone()
	res := Refactor(net, false)
	if res.Engine != "refactor" {
		t.Fatalf("engine %q", res.Engine)
	}
	if res.AreaReduction() < 0 {
		t.Fatal("refactor grew the network")
	}
	eq, err := Equivalent(golden, net)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("refactor broke equivalence")
	}
}

func TestFlowFraig(t *testing.T) {
	net, err := Generate("mem_ctrl", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	golden := net.Clone()
	results, final, err := Flow(net, "fraig; rewrite; fraig", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[0].Engine != "fraig" {
		t.Fatalf("results %+v", results)
	}
	eq, err := Equivalent(golden, final)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("fraig flow broke equivalence")
	}
}

func TestRewritingImprovesLUTMapping(t *testing.T) {
	base, err := Generate("mult", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	before, err := MapLUT(base, 6)
	if err != nil {
		t.Fatal(err)
	}
	opt := base.Clone()
	if _, err := Rewrite(opt, EngineDACPara, Config{}); err != nil {
		t.Fatal(err)
	}
	after, err := MapLUT(opt, 6)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("LUT6 area %d -> %d, depth %d -> %d", before.Area, after.Area, before.Depth, after.Depth)
	if after.Area > before.Area {
		t.Fatalf("rewriting worsened mapped area: %d -> %d", before.Area, after.Area)
	}
}

func TestFlowResub(t *testing.T) {
	net, err := Generate("sin", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	golden := net.Clone()
	results, final, err := Flow(net, "resub; rewrite; resub -z", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[0].Engine != "resub" {
		t.Fatalf("results %+v", results)
	}
	if final.NumAnds() >= golden.NumAnds() {
		t.Fatalf("flow did not shrink: %d -> %d", golden.NumAnds(), final.NumAnds())
	}
	eq, err := Equivalent(golden, final)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("resub flow broke equivalence")
	}
}

func TestFlowResumeContext(t *testing.T) {
	net, err := Generate("sin", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	golden := net.Clone()
	const script = "b; rw; b"

	// Run the first step only, capturing its boundary state through the
	// checkpoint hook — the same way the durable service snapshots a flow.
	type snap struct {
		completed int
		net       *Network
	}
	var snaps []snap
	full, final, err := FlowResumeContext(context.Background(), net.Clone(), script, Config{}, 0, func(completed int, n *Network) error {
		snaps = append(snaps, snap{completed, n.Clone()})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 3 || len(snaps) != 3 {
		t.Fatalf("full run: %d results, %d checkpoints", len(full), len(snaps))
	}

	// Resume from the first checkpoint: only the remaining steps run, and
	// the result is equivalent to the uninterrupted run's.
	resumed, resumedFinal, err := FlowResumeContext(context.Background(), snaps[0].net, script, Config{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 2 {
		t.Fatalf("resumed run executed %d steps, want 2", len(resumed))
	}
	eq, err := Equivalent(golden, resumedFinal)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("resumed flow broke equivalence")
	}
	_ = final

	// Resuming at the script length is a valid no-op (crash between the
	// last step and the terminal acknowledgement).
	none, _, err := FlowResumeContext(context.Background(), snaps[2].net, script, Config{}, 3, nil)
	if err != nil || len(none) != 0 {
		t.Fatalf("resume at end: %d results, %v", len(none), err)
	}

	// Out-of-range cursors are rejected.
	for _, bad := range []int{-1, 4} {
		if _, _, err := FlowResumeContext(context.Background(), net.Clone(), script, Config{}, bad, nil); err == nil {
			t.Fatalf("resume step %d accepted", bad)
		}
	}

	// A checkpoint error aborts the flow and is surfaced.
	boom := errors.New("disk on fire")
	_, _, err = FlowResumeContext(context.Background(), net.Clone(), script, Config{}, 0, func(int, *Network) error {
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("checkpoint error not surfaced: %v", err)
	}
}
