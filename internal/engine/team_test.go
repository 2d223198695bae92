package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"dacpara/internal/galois"
	"dacpara/internal/metrics"
)

// sameTotals holds the three places a run's speculation counters end up
// in — Result, the snapshot's totals, the snapshot's phases — to each
// other.
func sameTotals(t *testing.T, res Result) {
	t.Helper()
	spec := res.Metrics.Speculation
	fromResult := metrics.Spec{
		Commits: res.Commits, Aborts: res.Aborts, InjectedAborts: res.InjectedAborts,
		LocksTaken: spec.LocksTaken, LockFailures: spec.LockFailures,
		CommittedNs: res.CommittedWork.Nanoseconds(), WastedNs: res.WastedWork.Nanoseconds(),
	}
	var phases metrics.Spec
	for _, p := range res.Metrics.Phases {
		phases.Add(p.Speculation)
	}
	if fromResult != spec || phases != spec {
		t.Fatalf("speculation counters disagree:\n result   %+v\n snapshot %+v\n phases   %+v", fromResult, spec, phases)
	}
	if spec.CommittedNs <= 0 || spec.Aborts > 0 && spec.WastedNs <= 0 {
		t.Fatalf("work time missing: %+v", spec)
	}
}

// TestSpeculationAccounting holds Result and the metrics snapshot to what
// the operators counted, over two passes on one executor and under
// injected faults: nothing may be absorbed twice, nothing a worker counted
// may be left behind, and only a commit-only pass's commit phase
// speculates — its activities are every node. An Evaluator's commit is
// serial: the fault plan does not reach it, and nothing of it is an
// activity.
func TestSpeculationAccounting(t *testing.T) {
	fault := &galois.FaultPlan{Seed: 9, AbortRate: 0.3, ShuffleWorklist: true}
	for _, workers := range []int{1, 2, 4} {
		for _, shape := range []struct {
			name string
			pass func(*script) Pass[payload]
			plan Plan
			from int // first hook the loop runs
		}{
			{"fused", kinds[0].pass, fusedPlan, hookCommit},
			{"dynamic", kinds[2].pass, levelPlan, hookEnumerate},
		} {
			t.Run(fmt.Sprintf("%s/w%d", shape.name, workers), func(t *testing.T) {
				a := wideAIG(mixedWidths...)
				s := &script{a: a, lockFanins: true, verdict: byID}
				res, err := Run(context.Background(), a, shape.pass(s), shape.plan,
					Exec{Workers: workers, Passes: 2, Fault: fault, Metrics: metrics.New()})
				if err != nil {
					t.Fatal(err)
				}
				// Every node commits once per pass; an activity aborts on
				// its first refused lock, which is the pass's or the
				// framework's own acquire of the node.
				spec := res.Metrics.Speculation
				n := int64(2 * a.NumAnds())
				speculates := shape.from == hookCommit
				if !speculates {
					if res.Commits != 0 || spec.LocksTaken != 0 || res.Aborts != 0 || res.InjectedAborts != 0 {
						t.Fatalf("serial commit: commits=%d locks=%d aborts=%d injected=%d, want none",
							res.Commits, spec.LocksTaken, res.Aborts, res.InjectedAborts)
					}
				} else if res.Commits != n || res.Aborts != spec.LockFailures ||
					res.InjectedAborts == 0 || res.InjectedAborts > res.Aborts {
					t.Fatalf("commits=%d (want %d) aborts=%d lock failures=%d injected=%d",
						res.Commits, n, res.Aborts, spec.LockFailures, res.InjectedAborts)
				}
				// The sweep calls its hooks once per node and pass; a commit
				// that did not lose a lock went through.
				for hook := shape.from; hook < hookCommit; hook++ {
					if calls := s.calls(hook); calls != n {
						t.Fatalf("hook %d: %d calls over %d nodes and passes", hook, calls, n)
					}
				}
				lost := s.refused.Load()
				if calls := s.calls(hookCommit); calls-lost != n {
					t.Fatalf("commit: %d calls of which %d lost a lock, over %d nodes and passes", calls, lost, n)
				}
				// A commit that goes through takes the node's lock; none,
				// aborted ones included, takes more than the node's and its
				// two fanins'.
				if speculates && (spec.LocksTaken < n || spec.LocksTaken > 3*(n+res.Aborts)) {
					t.Fatalf("%d locks taken by %d commits and %d aborted ones", spec.LocksTaken, n, res.Aborts)
				}
				for _, p := range res.Metrics.Phases {
					sp := p.Speculation
					if !speculates || p.Name == "enumerate" || p.Name == "evaluate" {
						if sp != (metrics.Spec{CommittedNs: sp.CommittedNs}) || sp.CommittedNs <= 0 {
							t.Fatalf("phase %s, lock-free: %+v", p.Name, sp)
						}
					} else if sp.Commits != n || sp.Aborts < lost || sp.Aborts != res.Aborts {
						t.Fatalf("phase %s: %+v, the pass lost %d locks there and the run aborted %d times", p.Name, sp, lost, res.Aborts)
					}
				}
				var committed, stale int
				a.ForEachAnd(func(id int32) {
					switch byID(id) {
					case StatusCommitted:
						committed += 2
					case StatusStale:
						stale += 2
					}
				})
				if int64(res.Attempts) != n || res.Replacements != committed || res.Stale != stale {
					t.Fatalf("attempts=%d replacements=%d stale=%d, want %d/%d/%d",
						res.Attempts, res.Replacements, res.Stale, n, committed, stale)
				}
				sameTotals(t, res)
			})
		}
	}
}

// TestTeamLifetime runs the loop, in the plan shapes the engines use, to
// each kind of end — success, a context cancelled mid-run, an exhausted
// retry budget (where the plan has a locked phase for it to run out in:
// the sweep takes no lock, so a plan that commits serially ends well
// whatever the fault plan), a hook panic — and checks the two halves of "one fork per
// run": every hook of a run sees the same number of goroutines (the team,
// started once, is all there is), and none is left when the run returns.
func TestTeamLifetime(t *testing.T) {
	const workers = 3
	shapes := []struct {
		pass func(*script) Pass[payload]
		plan Plan
	}{
		{kinds[2].pass, Plan{Name: "dacpara", Partition: ByLevel}},
		{kinds[2].pass, Plan{Name: "dacpara-flat", Partition: Flat}},
		{kinds[1].pass, Plan{Name: "rf -p", Partition: ByLevel}},
		{kinds[2].pass, Plan{Name: "dac22", Partition: LevelOrder}},
		{kinds[0].pass, Plan{Name: "iccad18", Partition: Flat}},
		{kinds[0].pass, Plan{Name: "abc", Partition: Flat, SerialCommit: true}},
	}
	type ending struct {
		name  string
		setup func(s *script, e *Exec, node int32, cancel func())
		check func(error) bool
	}
	endings := []ending{
		{"success", func(*script, *Exec, int32, func()) {}, func(err error) bool { return err == nil }},
		{"cancelled", func(s *script, _ *Exec, node int32, cancel func()) { s.cancelAt, s.cancel = node, cancel },
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"budget", func(_ *script, e *Exec, _ int32, _ func()) {
			e.Fault = &galois.FaultPlan{Seed: 1, AbortRate: 1, RetryBudget: 5}
		}, func(err error) bool {
			var rbe *galois.RetryBudgetError
			return errors.As(err, &rbe)
		}},
		{"panic", func(s *script, _ *Exec, node int32, _ func()) { s.panicAt = node }, func(err error) bool {
			var pe *galois.PanicError
			return errors.As(err, &pe) && pe.Value == "pass bug"
		}},
	}
	for _, shape := range shapes {
		plan := shape.plan
		for _, end := range endings {
			check := end.check
			if end.name == "budget" {
				switch _, evaluates := shape.pass(nil).(Evaluator[payload]); {
				case evaluates:
					check = endings[0].check // a serial commit: no lock to refuse
				case plan.SerialCommit:
					continue // abc: no team, no executor, nothing to inject into
				}
			}
			t.Run(plan.Name+"/"+end.name, func(t *testing.T) {
				a := wideAIG(mixedWidths...)
				// A node in the middle of the widest level: on a shared
				// list, most likely on a helper.
				node := ByLevel(a)[2][100]
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				e := Exec{Workers: workers, Passes: 2}
				s := &script{a: a, lockFanins: true}
				end.setup(s, &e, node, cancel)
				base := goroutines()
				res, err := Run(ctx, a, shape.pass(s), plan, e)
				if !check(err) {
					t.Fatalf("err = %v", err)
				}
				if res.Incomplete != (err != nil) {
					t.Fatalf("Incomplete=%v with err=%v", res.Incomplete, err)
				}
				goroutinesBack(t, base)
				team := workers - 1
				if plan.Name == "abc" {
					team = 0
				}
				if lo, hi := s.gLo.Load(), s.gHi.Load(); end.name != "budget" && (lo != hi || int(lo) != base+team) {
					t.Fatalf("hooks saw between %d and %d goroutines; %d before the run, and a team of %d helpers", lo, hi, base, team)
				}
			})
		}
	}
}
