package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dacpara/internal/aig"
	"dacpara/internal/galois"
	"dacpara/internal/metrics"
)

// wideAIG builds one level of ANDs per width given, every AND a primary
// output, so that level lists are wide enough for the team to share
// (toyAIG's never are).
func wideAIG(widths ...int) *aig.AIG {
	a := aig.New()
	pis := make([]aig.Lit, 40)
	for i := range pis {
		pis[i] = a.AddPI()
	}
	prev := pis
	for _, w := range widths {
		level := make([]aig.Lit, w)
		for i := range level {
			// Distinct pairs, so structural hashing merges none of them:
			// round q over prev pairs it with input q+1 on, complemented
			// from the fortieth round.
			q, r := i/len(prev), i%len(prev)
			level[i] = a.And(prev[r], pis[(q+r+1)%len(pis)].XorCompl(q/len(pis)%2 == 1))
			a.AddPO(level[i])
		}
		prev = level
	}
	return a
}

// mixedWidths alternates lists the team shares with lists that stay on
// the caller.
var mixedWidths = []int{64, 3, 200, 20, 7, 90}

// goroutines returns the goroutine count once it holds still: helpers of
// teams that earlier tests closed may still be on their way out.
func goroutines() int {
	for {
		n := runtime.NumGoroutine()
		time.Sleep(2 * time.Millisecond)
		if runtime.NumGoroutine() == n {
			return n
		}
	}
}

// goroutinesBack fails the test unless the goroutine count comes back to
// base: a helper that has taken its leave is, for an instant, still on
// its way out, so the count is polled, yielding, for a bounded time.
func goroutinesBack(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() != base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// probe is what the toy passes below do from inside the operators: note
// how many goroutines exist, and misbehave on a chosen node.
type probe struct {
	gLo, gHi atomic.Int64 // fewest and most goroutines an operator saw
	panicAt  int32        // panic on this node (0: never)
	cancelAt int32        // call cancel on this node (0: never)
	cancel   func()
}

func (p *probe) visit(id int32) {
	g := int64(runtime.NumGoroutine())
	for v := p.gLo.Load(); (v == 0 || g < v) && !p.gLo.CompareAndSwap(v, g); v = p.gLo.Load() {
	}
	for v := p.gHi.Load(); g > v && !p.gHi.CompareAndSwap(v, g); v = p.gHi.Load() {
	}
	if id == p.panicAt {
		panic("pass bug")
	}
	if id == p.cancelAt {
		p.cancel()
	}
}

// lockFanins locks a node's fanins, as the real passes lock their cones.
func lockFanins(a *aig.AIG, id int32, lock Locker, refused *atomic.Int64) bool {
	if lock == nil {
		return true
	}
	n := a.N(id)
	for _, f := range []int32{n.Fanin0().Node(), n.Fanin1().Node()} {
		if !lock(f) {
			refused.Add(1)
			return false
		}
	}
	return true
}

// lockingPass is a three-phase pass over every node (verdict by node ID:
// committed, no-gain, stale) whose Enumerate and Commit take locks and
// which counts what the operators see.
type lockingPass struct {
	a *aig.AIG
	probe
	enumerates, evaluates, commits atomic.Int64 // hook calls
	enumRefused, commitRefused     atomic.Int64 // lock calls the hook made and lost
}

func (p *lockingPass) Begin(int, Env) {}

func (p *lockingPass) Enumerate(_ int, id int32, lock Locker) bool {
	p.enumerates.Add(1)
	return lockFanins(p.a, id, lock, &p.enumRefused)
}

func (p *lockingPass) Evaluate(_ int, id int32) bool {
	p.visit(id)
	p.evaluates.Add(1)
	return true
}

func (p *lockingPass) Stored(int32) bool { return true }

func (p *lockingPass) Commit(_ int, id int32, lock Locker) Status {
	if !lockFanins(p.a, id, lock, &p.commitRefused) {
		return StatusConflict
	}
	p.commits.Add(1)
	return StatusCommitted + Status(id%3)
}

// lockingFused is the fused counterpart. It takes every lock itself, so
// its counts are the whole operator side of the executor's.
type lockingFused struct {
	a *aig.AIG
	probe
	env                               Env
	commits, aborts, granted, refused atomic.Int64
}

func (p *lockingFused) Begin(_ int, env Env) { p.env = env }

func (p *lockingFused) Fuse(_ int, id int32, lock Locker) Status {
	if !p.a.N(id).IsAnd() {
		return StatusSkip
	}
	p.visit(id)
	if lock != nil {
		n := p.a.N(id)
		for _, f := range []int32{id, n.Fanin0().Node(), n.Fanin1().Node()} {
			if !lock(f) {
				p.refused.Add(1)
				p.aborts.Add(1)
				return StatusConflict
			}
			p.granted.Add(1)
		}
	}
	p.commits.Add(1)
	p.env.Attempts.Add(1)
	return StatusCommitted
}

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
		s := p.Speculation
		phases.Commits += s.Commits
		phases.Aborts += s.Aborts
		phases.InjectedAborts += s.InjectedAborts
		phases.LocksTaken += s.LocksTaken
		phases.LockFailures += s.LockFailures
		phases.CommittedNs += s.CommittedNs
		phases.WastedNs += s.WastedNs
	}
	if fromResult != spec || phases != spec {
		t.Fatalf("speculation counters disagree:\n result   %+v\n snapshot %+v\n phases   %+v", fromResult, spec, phases)
	}
	if spec.CommittedNs <= 0 || spec.Aborts > 0 && spec.WastedNs <= 0 {
		t.Fatalf("work time missing: %+v", spec)
	}
}

// TestSpeculationAccounting holds Result and the metrics snapshot to what
// the operators counted, over two passes on one executor: nothing may be
// absorbed twice, and nothing a worker counted may be left behind.
func TestSpeculationAccounting(t *testing.T) {
	fault := &galois.FaultPlan{Seed: 9, AbortRate: 0.3, ShuffleWorklist: true}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("fused/w%d", workers), func(t *testing.T) {
			a := wideAIG(mixedWidths...)
			pass := &lockingFused{a: a}
			res, err := RunFused(context.Background(), a, pass,
				Plan{Name: "toy", Partition: Flat, Mode: Fused},
				Exec{Workers: workers, Passes: 2, Fault: fault, Metrics: metrics.New()})
			if err != nil {
				t.Fatal(err)
			}
			spec := res.Metrics.Speculation
			n := int64(2 * a.NumAnds())
			if pass.commits.Load() != n || int64(res.Replacements) != n || int64(res.Attempts) != n {
				t.Fatalf("%d operator commits, %d replacements, %d attempts, want %d each",
					pass.commits.Load(), res.Replacements, res.Attempts, n)
			}
			if res.Commits != n || res.Aborts != pass.aborts.Load() || spec.LockFailures != pass.refused.Load() ||
				res.InjectedAborts == 0 || res.InjectedAborts > res.Aborts {
				t.Fatalf("result commits=%d aborts=%d injected=%d, lock failures %d; operators saw commits=%d aborts=%d refused=%d",
					res.Commits, res.Aborts, res.InjectedAborts, spec.LockFailures, n, pass.aborts.Load(), pass.refused.Load())
			}
			// A grant is a new lock unless the activity already held the
			// node (both fanins on one node), so never more than grants.
			if spec.LocksTaken > pass.granted.Load() || spec.LocksTaken < n {
				t.Fatalf("%d locks taken, operators were granted %d", spec.LocksTaken, pass.granted.Load())
			}
			sameTotals(t, res)
		})
		t.Run(fmt.Sprintf("dynamic/w%d", workers), func(t *testing.T) {
			a := wideAIG(mixedWidths...)
			pass := &lockingPass{a: a}
			res, err := Run(context.Background(), a, pass,
				Plan{Name: "toy", Partition: ByLevel, Mode: Dynamic},
				Exec{Workers: workers, Passes: 2, Fault: fault, Metrics: metrics.New()})
			if err != nil {
				t.Fatal(err)
			}
			// Every node commits once per phase and pass; an activity
			// aborts on its first refused lock, which is the pass's or the
			// framework's own acquire of the node.
			spec := res.Metrics.Speculation
			n := int64(2 * a.NumAnds())
			if res.Commits != 3*n || res.Aborts != spec.LockFailures ||
				res.InjectedAborts == 0 || res.InjectedAborts > res.Aborts {
				t.Fatalf("commits=%d (want %d) aborts=%d lock failures=%d injected=%d",
					res.Commits, 3*n, res.Aborts, spec.LockFailures, res.InjectedAborts)
			}
			if pass.evaluates.Load() != n || pass.commits.Load() != n ||
				pass.enumerates.Load()-pass.enumRefused.Load() != n {
				t.Fatalf("over %d nodes and passes: %d evaluations, %d commits, %d enumerations of which %d lost a lock",
					n, pass.evaluates.Load(), pass.commits.Load(), pass.enumerates.Load(), pass.enumRefused.Load())
			}
			for _, p := range res.Metrics.Phases {
				lost := map[string]int64{"enumerate": pass.enumRefused.Load(), "replace": pass.commitRefused.Load()}[p.Name]
				if p.Speculation.Commits != n || p.Speculation.Aborts < lost || (p.Name == "evaluate" && p.Speculation.Aborts != 0) {
					t.Fatalf("phase %s: %+v, the pass lost %d locks there", p.Name, p.Speculation, lost)
				}
			}
			var committed, stale int
			a.ForEachAnd(func(id int32) {
				switch StatusCommitted + Status(id%3) {
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

// TestTeamLifetime runs every skeleton, in the plan shapes the engines
// use, to each kind of end — success, a context cancelled mid-run, an
// exhausted retry budget, an operator panic — and checks the two halves
// of "one fork per run": every operator of a run sees the same number of
// goroutines (the team, started once, is all there is), and none is left
// when the run returns. The panic rows are also the robustness check of
// the Static skeleton, whose workers had no recover of their own.
func TestTeamLifetime(t *testing.T) {
	const workers = 3
	plans := []Plan{
		{Name: "dacpara", Partition: ByLevel, Mode: Dynamic},
		{Name: "dacpara-flat", Partition: Flat, Mode: Dynamic},
		{Name: "rf -p", Partition: ByLevel, Mode: Dynamic, SkipEnumerate: true, SerialCommit: true},
		{Name: "dac22", Partition: ByLevel, Mode: Static},
		{Name: "iccad18", Partition: Flat, Mode: Fused},
		{Name: "abc", Partition: Topo, Mode: Serial},
	}
	type ending struct {
		name  string
		setup func(p *probe, e *Exec, node int32, cancel func())
		check func(error) bool
	}
	endings := []ending{
		{"success", func(*probe, *Exec, int32, func()) {}, func(err error) bool { return err == nil }},
		{"cancelled", func(p *probe, _ *Exec, node int32, cancel func()) { p.cancelAt, p.cancel = node, cancel },
			func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"budget", func(_ *probe, e *Exec, _ int32, _ func()) {
			e.Fault, e.RetryBudget = &galois.FaultPlan{Seed: 1, AbortRate: 1}, 5
		}, func(err error) bool {
			var rbe *galois.RetryBudgetError
			return errors.As(err, &rbe)
		}},
		{"panic", func(p *probe, _ *Exec, node int32, _ func()) { p.panicAt = node }, func(err error) bool {
			var pe *galois.PanicError
			return errors.As(err, &pe) && pe.Value == "pass bug"
		}},
	}
	for _, plan := range plans {
		for _, end := range endings {
			locks := plan.Mode == Fused || plan.Mode == Dynamic && !plan.SerialCommit
			if end.name == "budget" && !locks || end.name == "panic" && plan.Mode == Serial {
				continue // no lock to refuse; the serial sweep has no workers to guard
			}
			t.Run(plan.Name+"/"+end.name, func(t *testing.T) {
				a := wideAIG(mixedWidths...)
				// A node in the middle of the widest level: on a shared
				// list, most likely on a helper.
				var node int32
				for _, id := range ByLevel(a)[2][100:] {
					node = id
					break
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				e := Exec{Workers: workers, Passes: 2}
				var pr *probe
				var run func() (Result, error)
				if plan.Mode == Fused || plan.Mode == Serial {
					pass := &lockingFused{a: a}
					pr, run = &pass.probe, func() (Result, error) { return RunFused(ctx, a, pass, plan, e) }
				} else {
					pass := &lockingPass{a: a}
					pr, run = &pass.probe, func() (Result, error) { return Run(ctx, a, pass, plan, e) }
				}
				end.setup(pr, &e, node, cancel)
				base := goroutines()
				res, err := run()
				if !end.check(err) {
					t.Fatalf("err = %v", err)
				}
				if res.Incomplete != (err != nil) {
					t.Fatalf("Incomplete=%v with err=%v", res.Incomplete, err)
				}
				goroutinesBack(t, base)
				team := workers - 1
				if plan.Mode == Serial {
					team = 0
				}
				if lo, hi := pr.gLo.Load(), pr.gHi.Load(); end.name != "budget" && (lo != hi || int(lo) != base+team) {
					t.Fatalf("operators saw between %d and %d goroutines; %d before the run, and a team of %d helpers", lo, hi, base, team)
				}
			})
		}
	}
}
