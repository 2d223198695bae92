package guard_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"dacpara/internal/aig"
	"dacpara/internal/bench"
	"dacpara/internal/cec"
	"dacpara/internal/galois"
	"dacpara/internal/guard"
	"dacpara/internal/npn"
	"dacpara/internal/rewlib"
	"dacpara/internal/rewrite"
)

func lib(t testing.TB) *rewlib.Library {
	t.Helper()
	l, err := rewlib.Build(npn.Shared(), rewlib.Params{})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func assertEquivalent(t *testing.T, golden, got *aig.AIG) {
	t.Helper()
	r, err := cec.Check(golden, got, cec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equivalent {
		t.Fatalf("guarded rewrite broke equivalence")
	}
}

func TestGuardCleanCommit(t *testing.T) {
	net := bench.Multiplier(8)
	golden := net.Clone()
	res, rep, err := guard.Rewrite(context.Background(), net, lib(t), rewrite.Config{Workers: 4}, guard.Options{Engine: rewrite.EngineDACPara})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed != rewrite.EngineDACPara || rep.Degraded {
		t.Fatalf("expected clean first-rung commit, got %+v", rep)
	}
	if len(rep.Attempts) != 1 || !rep.Attempts[0].Committed {
		t.Fatalf("expected exactly one committed attempt, got %v", rep)
	}
	if res.FinalAnds >= res.InitialAnds {
		t.Errorf("expected area reduction on mult, got %d -> %d", res.InitialAnds, res.FinalAnds)
	}
	if net.NumAnds() != res.FinalAnds {
		t.Errorf("adopted network has %d ands, result says %d", net.NumAnds(), res.FinalAnds)
	}
	if err := net.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, golden, net)
}

// TestGuardFaultInjectionTerminates is the issue's headline scenario: a
// seeded FaultPlan forcing aborts on >=20% of activities must still
// terminate within the retry budget and produce a verified result.
func TestGuardFaultInjectionTerminates(t *testing.T) {
	net := bench.Multiplier(8)
	golden := net.Clone()
	cfg := rewrite.Config{
		Workers: 4,
		Fault: &galois.FaultPlan{
			Seed:            42,
			AbortRate:       0.25,
			ShuffleWorklist: true,
		},
	}
	res, rep, err := guard.Rewrite(context.Background(), net, lib(t), cfg, guard.Options{Engine: rewrite.EngineDACPara})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed != rewrite.EngineDACPara {
		t.Fatalf("fault rate 0.25 should stay within the retry budget, got report:\n%s", rep)
	}
	if res.InjectedAborts == 0 {
		t.Fatalf("fault plan injected no aborts: %+v", res)
	}
	if err := net.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, golden, net)
}

// TestGuardSabotageDegrades injects a corrupting fault (a complemented
// output) into the first rung and expects rollback plus degradation to
// the next rung, with the failure recorded in the report.
func TestGuardSabotageDegrades(t *testing.T) {
	net := bench.Multiplier(8)
	golden := net.Clone()
	opts := guard.Options{
		Engine: rewrite.EngineDACPara,
		Sabotage: func(a *aig.AIG) {
			pos := a.POs()
			pos[0] = pos[0].XorCompl(true)
		},
	}
	_, rep, err := guard.Rewrite(context.Background(), net, lib(t), rewrite.Config{Workers: 4}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded || rep.Committed != rewrite.EngineLockPar {
		t.Fatalf("expected degradation to iccad18, got report:\n%s", rep)
	}
	if len(rep.Attempts) != 2 {
		t.Fatalf("expected 2 attempts, got %d", len(rep.Attempts))
	}
	first := rep.Attempts[0]
	if first.Committed || first.Violation == "" {
		t.Fatalf("first attempt should have a verification violation, got %+v", first)
	}
	if !strings.Contains(first.Violation, "simulation mismatch") {
		t.Fatalf("violation should be the simulation screen, got %q", first.Violation)
	}
	if err := net.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, golden, net)
}

// TestGuardBudgetExhaustionDegradesToSerial drives both parallel rungs
// into retry-budget exhaustion with a 100% abort rate; the serial engine
// ignores the executor fault plan and must win.
func TestGuardBudgetExhaustionDegradesToSerial(t *testing.T) {
	net := bench.Multiplier(8)
	golden := net.Clone()
	cfg := rewrite.Config{
		Workers:     4,
		RetryBudget: 40,
		Fault:       &galois.FaultPlan{Seed: 1, AbortRate: 1.0},
	}
	_, rep, err := guard.Rewrite(context.Background(), net, lib(t), cfg, guard.Options{Engine: rewrite.EngineDACPara})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Committed != rewrite.EngineSerial || !rep.Degraded {
		t.Fatalf("expected degradation to the serial engine, got report:\n%s", rep)
	}
	for _, att := range rep.Attempts[:len(rep.Attempts)-1] {
		if !strings.Contains(att.Err, "retry budget exhausted") {
			t.Fatalf("rung %s failed with %q, want a retry-budget error", att.Engine, att.Err)
		}
	}
	assertEquivalent(t, golden, net)
}

// TestGuardDeadline stops an attempt that exceeds its deadline; on abc's
// one-rung ladder the guard reports exhaustion and leaves the network
// untouched.
func TestGuardDeadline(t *testing.T) {
	net := bench.Multiplier(8)
	golden := net.Clone()
	before := net.NumAnds()
	opts := guard.Options{
		Engine:   rewrite.EngineSerial,
		Deadline: time.Nanosecond,
	}
	_, rep, err := guard.Rewrite(context.Background(), net, lib(t), rewrite.Config{Workers: 2}, opts)
	if !errors.Is(err, guard.ErrExhausted) {
		t.Fatalf("expected ErrExhausted, got %v", err)
	}
	if len(rep.Attempts) != 1 || !rep.Attempts[0].TimedOut {
		t.Fatalf("expected one timed-out attempt, got %+v", rep.Attempts)
	}
	if net.NumAnds() != before {
		t.Fatalf("network mutated after total failure: %d -> %d ands", before, net.NumAnds())
	}
	assertEquivalent(t, golden, net)
}

// TestGuardRejectsUnknownEngine: a typo'd engine name is a
// configuration error and must be rejected up front, not masked by
// degrading to a working rung.
func TestGuardRejectsUnknownEngine(t *testing.T) {
	net := bench.Multiplier(6)
	before := net.NumAnds()
	_, rep, err := guard.Rewrite(context.Background(), net, lib(t), rewrite.Config{}, guard.Options{Engine: "no-such-engine"})
	if err == nil || errors.Is(err, guard.ErrExhausted) {
		t.Fatalf("expected a config error, got %v", err)
	}
	if rep != nil {
		t.Fatalf("config error should not produce a report, got %+v", rep)
	}
	if net.NumAnds() != before {
		t.Fatal("network mutated on config error")
	}
}

func TestDefaultLadder(t *testing.T) {
	cases := []struct {
		first rewrite.Engine
		want  []rewrite.Engine
	}{
		{rewrite.EngineDACPara, []rewrite.Engine{"dacpara", "iccad18", "abc"}},
		{"", []rewrite.Engine{"dacpara", "iccad18", "abc"}},
		{rewrite.EngineLockPar, []rewrite.Engine{"iccad18", "abc"}},
		{rewrite.EngineSerial, []rewrite.Engine{"abc"}},
		{rewrite.EngineStaticDAC22, []rewrite.Engine{"dac22", "iccad18", "abc"}},
	}
	for _, c := range cases {
		got := guard.DefaultLadder(c.first)
		if len(got) != len(c.want) {
			t.Fatalf("DefaultLadder(%q) = %v, want %v", c.first, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("DefaultLadder(%q) = %v, want %v", c.first, got, c.want)
			}
		}
	}
}
