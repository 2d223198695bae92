package dacpara

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/lutmap"
)

func TestFlowResyn2(t *testing.T) {
	net, err := Generate("sin", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	initial := net.Stats()
	out := runJob(t, net, Job{Flow: Resyn2, Verify: true})
	if len(out.Steps) != len(strings.Split(Resyn2, ";")) {
		t.Fatalf("expected one result per command, got %d", len(out.Steps))
	}
	st := out.Net.Stats()
	if st.Ands >= initial.Ands {
		t.Fatalf("resyn2 did not reduce area: %d -> %d", initial.Ands, st.Ands)
	}
}

// TestFlowIsItsStepsInSequence: a flow carries no state from one step to
// the next, so it lands on the network its steps build when each runs as
// a flow of its own — across two rewrites of one graph, refactor and
// resub, and the graph rebuilds of fraig and balance. One worker: dacpara
// at Workers > 1 is not byte-deterministic on a multi-core host.
func TestFlowIsItsStepsInSequence(t *testing.T) {
	net, err := Generate("sin", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	const script = "rw; rw -z; rf; rs; fraig; b; rw"

	whole := runJob(t, net.Clone(), Job{Flow: script, Workers: 1}).Net

	stepwise := net.Clone()
	for _, step := range strings.Split(script, ";") {
		stepwise = runJob(t, stepwise, Job{Flow: step, Workers: 1}).Net
	}

	if dw, ds := aig.StructuralDigest(whole), aig.StructuralDigest(stepwise); dw != ds {
		t.Fatalf("the flow differs from its steps run one at a time: %s vs %s (%d vs %d ANDs)",
			dw, ds, whole.NumAnds(), stepwise.NumAnds())
	}
}

// TestFlowAreaIsLive: every step's area counts live logic only, the
// graph rebuilds' too. On mem_ctrl1500, a third of whose ANDs no output
// reaches, balance and fraig report the live count as their InitialAnds,
// and so does the flow's summary; a later step starts where the one
// before it ended, so the one sweep before the flow covers it.
func TestFlowAreaIsLive(t *testing.T) {
	golden := bench.FlowVerified()[4] // MemCtrl(1500, …)
	live := golden.Clone()
	if live.Sweep() == 0 {
		t.Fatal("mem_ctrl1500 holds no dead logic")
	}
	for _, script := range []string{"b", "fraig", "rw; b; fraig"} {
		out := runJob(t, golden.Clone(), Job{Flow: script})
		if got, sum := out.Steps[0].InitialAnds, out.Result.InitialAnds; got != live.NumAnds() || sum != live.NumAnds() {
			t.Errorf("%s: step reports %d initial ANDs, the flow %d; %d are live", script, got, sum, live.NumAnds())
		}
		for i := 1; i < len(out.Steps); i++ {
			if got, want := out.Steps[i].InitialAnds, out.Steps[i-1].FinalAnds; got != want {
				t.Errorf("%s: step %d starts at %d ANDs, step %d ended at %d", script, i, got, i-1, want)
			}
		}
	}
}

func TestFlowBalanceReducesDepth(t *testing.T) {
	// A skewed AND chain balances to logarithmic depth through the flow.
	net := aig.New()
	acc := net.AddPI()
	for i := 1; i < 32; i++ {
		acc = net.And(acc, net.AddPI())
	}
	net.AddPO(acc)
	final := runJob(t, net, Job{Flow: "balance"}).Net
	if final.Delay() != 5 {
		t.Fatalf("balanced 32-AND chain depth %d, want 5", final.Delay())
	}
}

func TestFlowRejectsUnknownCommands(t *testing.T) {
	net, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), net, Job{Flow: "balance; frobnicate"}, Hooks{}); err == nil {
		t.Fatal("unknown command accepted")
	}
	if _, err := Run(context.Background(), net, Job{Flow: "rewrite -q"}, Hooks{}); err == nil {
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
	if _, err := Run(context.Background(), net, Job{Flow: "rewrite; balance; frobnicate"}, Hooks{}); err == nil {
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

// TestParseFlowRetiredP: refactor and resub have one pass, so the -p that
// once chose it is accepted on them and changes nothing — old scripts and
// journaled jobs carry it — and stays an error everywhere else; -w=N
// needs no -p.
func TestParseFlowRetiredP(t *testing.T) {
	for with, without := range map[string]string{
		"rf -p":                   "rf",
		"refactor -p -z":          "refactor -z",
		"rs -p -w=2":              "rs -w=2",
		"b; rf -p; rs -p -w=2; b": "b; rf; rs -w=2; b",
	} {
		got, err := ParseFlow(with)
		if err != nil {
			t.Fatalf("%q: %v", with, err)
		}
		want, err := ParseFlow(without)
		if err != nil {
			t.Fatalf("%q: %v", without, err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%q parses to %+v, %q to %+v", with, got, without, want)
		}
	}
	for _, bad := range []string{"rw -p", "b -p", "fraig -p", "dacpara -p"} {
		if _, err := ParseFlow(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	steps, err := ParseFlow("rf -w=2")
	if err != nil || len(steps) != 1 || steps[0].Workers != 2 {
		t.Fatalf("rf -w=2: %+v, %v", steps, err)
	}
}

func TestFlowEngineCommands(t *testing.T) {
	net, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	out := runJob(t, net, Job{Flow: "abc; iccad18; dacpara", Workers: 2, Verify: true})
	if len(out.Steps) != 3 {
		t.Fatalf("%d results", len(out.Steps))
	}
}

func TestRefactorFacade(t *testing.T) {
	net, err := Generate("log2", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	res := runJob(t, net, Job{Flow: "rf", Verify: true}).Steps[0]
	if res.Engine != "refactor" {
		t.Fatalf("engine %q", res.Engine)
	}
	if res.AreaReduction() < 0 {
		t.Fatal("refactor grew the network")
	}
}

func TestFlowFraig(t *testing.T) {
	net, err := Generate("mem_ctrl", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	out := runJob(t, net, Job{Flow: "fraig; rewrite; fraig", Verify: true})
	if len(out.Steps) != 3 || out.Steps[0].Engine != "fraig" {
		t.Fatalf("results %+v", out.Steps)
	}
}

func TestRewritingImprovesLUTMapping(t *testing.T) {
	base, err := Generate("mult", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	before, err := lutmap.Map(base, 6)
	if err != nil {
		t.Fatal(err)
	}
	opt := runJob(t, base.Clone(), Job{}).Net
	after, err := lutmap.Map(opt, 6)
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
	before := net.NumAnds()
	out := runJob(t, net, Job{Flow: "resub; rewrite; resub -z", Verify: true})
	if len(out.Steps) != 3 || out.Steps[0].Engine != "resub" {
		t.Fatalf("results %+v", out.Steps)
	}
	if out.Net.NumAnds() >= before {
		t.Fatalf("flow did not shrink: %d -> %d", before, out.Net.NumAnds())
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
	if _, err := Verify(golden, resumedFinal, 0); err != nil {
		t.Fatalf("resumed flow broke equivalence: %v", err)
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
