package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dacpara/internal/aig"
	"dacpara/internal/galois"
	"dacpara/internal/metrics"
)

// toyAIG is a 6-AND, 3-level network: enough structure for the policies
// to produce several worklists and for the loop to visit nodes at
// different depths.
func toyAIG() *aig.AIG {
	a := aig.New()
	x, y, z := a.AddPI(), a.AddPI(), a.AddPI()
	n1 := a.And(x, y)
	n2 := a.And(y, z)
	n3 := a.And(n1, z)
	n4 := a.And(n2, x.Not())
	n5 := a.And(n3, n4.Not())
	a.AddPO(n5)
	a.AddPO(a.And(n3.Not(), n4))
	return a
}

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

// The hooks a scripted pass records, in the order the loop runs them.
const (
	hookEnumerate = iota
	hookEvaluate
	hookCommit
)

// event is one hook call.
type event struct {
	seq    int64 // global order of hook entry
	pass   int   // Begin calls so far
	hook   int
	worker int
	id     int32
	cand   payload // what a Commit was handed (0: nil)
}

// payload is a scripted pass's candidate: derived from the node ID, so
// that a candidate handed to the wrong node's Commit shows.
type payload int64

func payloadOf(id int32) payload { return payload(id)*7919 + 17 }

// script is the state of a scripted toy pass: what its hooks do is fixed
// before the run and only read during it; what they saw is logged per
// worker slot, without synchronisation, so that under -race two
// goroutines sharing a slot would show. It mutates nothing, so the
// partition of the graph is the same before, during and after the run.
type script struct {
	a *aig.AIG
	// stored says which nodes come out of Evaluate holding a candidate
	// (nil: all) — payloadOf(id), while a node without one leaves its
	// negation in the slot; verdict is Commit's answer (nil: committed).
	stored  func(id int32) bool
	verdict func(id int32) Status
	// flaky nodes lose their first locked Commit to a conflict of the
	// pass's own making.
	flaky func(id int32) bool
	// lockFanins makes a locked Commit lock the node's fanins, as the real
	// passes lock their cones, so injected faults reach the pass.
	lockFanins bool
	// panicAt and cancelAt make the first hook that sees the node panic,
	// or cancel the run's context (0: never).
	panicAt, cancelAt int32
	cancel            func()

	env      Env
	begins   int
	slots    int
	seq      atomic.Int64
	logs     [][]event      // by worker slot
	tries    []atomic.Int32 // locked Commit calls per node
	refused  atomic.Int64   // fanin locks Commit asked for and lost
	gLo, gHi atomic.Int64   // fewest and most goroutines a hook saw
}

func (p *script) Begin(slots int, env Env) {
	p.begins++
	p.slots, p.env = slots, env
	if p.logs == nil {
		p.logs = make([][]event, slots)
		p.tries = make([]atomic.Int32, p.a.Capacity())
	}
}

// enter logs one hook call and plays the node's scripted mischief.
func (p *script) enter(hook, worker int, id int32) {
	p.logs[worker] = append(p.logs[worker], event{seq: p.seq.Add(1), pass: p.begins, hook: hook, worker: worker, id: id})
	g := int64(runtime.NumGoroutine())
	for v := p.gLo.Load(); (v == 0 || g < v) && !p.gLo.CompareAndSwap(v, g); v = p.gLo.Load() {
	}
	for v := p.gHi.Load(); g > v && !p.gHi.CompareAndSwap(v, g); v = p.gHi.Load() {
	}
	if id != 0 && id == p.panicAt {
		panic("pass bug")
	}
	if id != 0 && id == p.cancelAt {
		p.cancel()
	}
}

// locked plays the lock side of Commit: the scripted conflict, then the
// fanin locks.
func (p *script) locked(id int32, lock Locker) bool {
	if lock == nil {
		return true
	}
	if p.flaky != nil && p.flaky(id) && p.tries[id].Add(1) == 1 {
		return false
	}
	if p.lockFanins {
		n := p.a.N(id)
		for _, f := range []int32{n.Fanin0().Node(), n.Fanin1().Node()} {
			if !lock(f) {
				p.refused.Add(1)
				return false
			}
		}
	}
	return true
}

func (p *script) enumerate(worker int, id int32) { p.enter(hookEnumerate, worker, id) }

func (p *script) evaluate(worker int, id int32, cand *payload) (stored, counted bool) {
	p.enter(hookEvaluate, worker, id)
	stored = p.stored == nil || p.stored(id)
	if *cand = payloadOf(id); !stored {
		*cand = -*cand
	}
	return stored, true
}

func (p *script) commit(worker int, id int32, cand *payload, lock Locker, countAttempt bool) Status {
	p.enter(hookCommit, worker, id)
	if cand != nil {
		p.logs[worker][len(p.logs[worker])-1].cand = *cand
	}
	if !p.a.N(id).IsAnd() {
		return StatusSkip
	}
	if !p.locked(id, lock) {
		return StatusConflict
	}
	if countAttempt {
		// A pass the framework runs no evaluation for counts its own.
		p.env.Attempts.Add(1)
	}
	if p.verdict == nil {
		return StatusCommitted
	}
	return p.verdict(id)
}

// events returns the merged log in hook-entry order.
func (p *script) events() []event {
	all := slices.Concat(p.logs...)
	slices.SortFunc(all, func(x, y event) int { return int(x.seq - y.seq) })
	return all
}

// calls counts the logged calls of one hook.
func (p *script) calls(hook int) (n int64) {
	for _, log := range p.logs {
		for _, e := range log {
			if e.hook == hook {
				n++
			}
		}
	}
	return n
}

// The three things a pass can be, over one script: what each type
// implements is what chooses its phases.
type (
	commitOnly  struct{ *script }
	evaluating  struct{ *script }
	enumerating struct{ evaluating }
)

func (p commitOnly) Commit(worker int, id int32, cand *payload, lock Locker) Status {
	return p.commit(worker, id, cand, lock, true)
}
func (p evaluating) Evaluate(worker int, id int32, cand *payload) (bool, bool) {
	return p.evaluate(worker, id, cand)
}
func (p evaluating) Commit(worker int, id int32, cand *payload, lock Locker) Status {
	return p.commit(worker, id, cand, lock, false)
}
func (p enumerating) Enumerate(worker int, id int32) { p.enumerate(worker, id) }

var (
	_ Evaluator[payload] = evaluating{}
	_ Enumerator         = enumerating{}
)

// kinds lists them, each with the first hook the loop runs for it.
var kinds = []struct {
	name string
	pass func(*script) Pass[payload]
	from int // first hook the loop runs
}{
	{"commit", func(s *script) Pass[payload] { return commitOnly{s} }, hookCommit},
	{"evaluate+commit", func(s *script) Pass[payload] { return evaluating{s} }, hookEvaluate},
	{"enumerate+evaluate+commit", func(s *script) Pass[payload] { return enumerating{evaluating{s}} }, hookEnumerate},
}

// byID scripts a verdict per node: committed, no-gain, stale in turn.
func byID(id int32) Status { return StatusCommitted + Status(id%3) }

// TestOneSkeleton runs the loop over every combination of what a pass can
// be, what its plan says of the commit and how many workers it has, and
// holds it to the contract of Run and Pass: the slot count and worker
// tags, the step order within and across worklists — one sweep in which
// every worker enumerates a chunk and then evaluates it, then the commit
// of the stored nodes, each handed the candidate its evaluation stored —
// the accounting, the retry of conflicted commits and the shape of the
// snapshot. An Evaluator commits serially whatever its plan says, so its
// serial=false cases hold the loop to ignoring the flag.
func TestOneSkeleton(t *testing.T) {
	for _, kind := range kinds {
		for _, flag := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/serial=%v/w%d", kind.name, flag, workers), func(t *testing.T) {
					a := wideAIG(mixedWidths...)
					lists := ByLevel(a)
					listOf := make([]int, a.Capacity())
					posOf := make([]int, a.Capacity())
					for i, wl := range lists {
						for k, id := range wl {
							listOf[id], posOf[id] = i, k
						}
					}
					evaluates := kind.from <= hookEvaluate
					serial := flag || evaluates
					s := &script{
						a:       a,
						stored:  func(id int32) bool { return id%4 != 0 },
						verdict: byID,
						flaky:   func(id int32) bool { return id%5 == 0 },
					}
					const passes = 2
					res, err := Run(context.Background(), a, kind.pass(s),
						Plan{Name: "toy", Partition: ByLevel, SerialCommit: flag},
						Exec{Workers: workers, Passes: passes, Metrics: metrics.New()})
					if err != nil {
						t.Fatal(err)
					}

					// Slots and tags. Only a plan with nothing but a serial
					// commit ignores the worker count.
					w := workers
					if serial && kind.from == hookCommit {
						w = 1
					}
					if s.begins != passes || s.slots != w+1 || len(s.env.CutPools) != w+1 || len(s.env.Shards) != w+1 {
						t.Fatalf("begins=%d slots=%d pools=%d shards=%d, want %d begins and %d of the others",
							s.begins, s.slots, len(s.env.CutPools), len(s.env.Shards), passes, w+1)
					}
					if res.Engine != "toy" || res.Threads != w || res.Passes != passes || res.Incomplete {
						t.Fatalf("bad result header %+v", res)
					}
					events := s.events()
					for _, e := range events {
						if onCaller := serial && e.hook == hookCommit; onCaller != (e.worker == 0) || e.worker > w {
							t.Fatalf("hook %d ran with worker tag %d (serial commit %v, %d workers)", e.hook, e.worker, serial, w)
						}
					}

					// Step order: pass by pass, worklist by worklist, the sweep
					// before the commit phase, nothing of the next before the
					// last of this one.
					step := func(hook int) int {
						if hook == hookCommit {
							return 1
						}
						return 0
					}
					var last [3]int
					for _, e := range events {
						key := [3]int{e.pass, listOf[e.id], step(e.hook)}
						if slices.Compare(key[:], last[:]) < 0 {
							t.Fatalf("call %d: hook %d on list %d of pass %d after step %d on list %d of pass %d",
								e.seq, e.hook, key[1], key[0], last[2], last[1], last[0])
						}
						last = key
						if e.hook < kind.from {
							t.Fatalf("hook %d ran for a pass that does not implement it", e.hook)
						}
					}
					// Inside a sweep: what a worker enumerates it evaluates
					// next, node for node, before it enumerates anything else
					// — a chunk at a time — and chunks are taken in list
					// order.
					if kind.from == hookEnumerate {
						for worker, log := range s.logs {
							var chunk []int32
							for i := 0; i < len(log); i++ {
								switch e := log[i]; e.hook {
								case hookEnumerate:
									if i > 0 && log[i-1].hook == hookEvaluate {
										if len(chunk) > 0 {
											t.Fatalf("worker %d enumerated node %d with %v of its last chunk not evaluated", worker, e.id, chunk)
										}
										if prev := log[i-1]; prev.pass == e.pass && listOf[prev.id] == listOf[e.id] && prev.id > e.id {
											t.Fatalf("worker %d took the chunk of node %d after that of node %d", worker, e.id, prev.id)
										}
									}
									chunk = append(chunk, e.id)
								case hookEvaluate:
									if len(chunk) == 0 || chunk[0] != e.id {
										t.Fatalf("worker %d evaluated node %d, its enumerated chunk holds %v", worker, e.id, chunk)
									}
									chunk = chunk[1:]
								case hookCommit:
									if len(chunk) > 0 {
										t.Fatalf("worker %d committed node %d with %v enumerated and not evaluated", worker, e.id, chunk)
									}
								}
							}
						}
					}

					// Who is visited, and how often: every node once per
					// sweep hook and pass; in the commit phase only the nodes
					// the sweep stored a candidate on (every node, without a
					// sweep), plus one retry where the pass reported a
					// conflict — which only a locked commit can.
					var want [3]int64
					var wantRepl, wantStale, wantAttempts, wantAborts int
					a.ForEachAnd(func(id int32) {
						if kind.from <= hookEnumerate {
							want[hookEnumerate] += passes
						}
						if evaluates {
							want[hookEvaluate] += passes
							if !s.stored(id) {
								return
							}
						}
						want[hookCommit] += passes
						if !serial && s.flaky(id) {
							want[hookCommit]++
							wantAborts++
						}
						wantAttempts += passes
						switch byID(id) {
						case StatusCommitted:
							wantRepl += passes
						case StatusStale:
							wantStale += passes
						}
					})
					for hook, n := range want {
						if got := s.calls(hook); got != n {
							t.Fatalf("hook %d ran %d times, want %d", hook, got, n)
						}
					}
					// What each commit was handed: the candidate the node's
					// evaluation stored — no other node's, no unstored slot —
					// in worklist order; nothing for a commit-only pass.
					var prev event
					for _, e := range events {
						if e.hook != hookCommit {
							continue
						}
						if evaluates && !s.stored(e.id) {
							t.Fatalf("node %d committed without a stored candidate", e.id)
						}
						if want := payloadOf(e.id); evaluates && e.cand != want || !evaluates && e.cand != 0 {
							t.Fatalf("commit of node %d handed candidate %d (evaluates: %v; stored: %d)", e.id, e.cand, evaluates, want)
						}
						if serial && prev.hook == hookCommit && prev.pass == e.pass &&
							listOf[prev.id] == listOf[e.id] && posOf[prev.id] >= posOf[e.id] {
							t.Fatalf("serial commit of node %d after node %d, which follows it in the worklist", e.id, prev.id)
						}
						prev = e
					}
					if res.Attempts != wantAttempts || res.Replacements != wantRepl || res.Stale != wantStale {
						t.Fatalf("attempts=%d replacements=%d stale=%d, want %d/%d/%d",
							res.Attempts, res.Replacements, res.Stale, wantAttempts, wantRepl, wantStale)
					}
					if int(res.Aborts) != wantAborts {
						t.Fatalf("%d aborts, the pass reported %d conflicts", res.Aborts, wantAborts)
					}
					// Only the commit phase has activities, and only under the
					// executor: one per node it was handed, per pass.
					if wantCommits := want[hookCommit] - int64(wantAborts); serial && res.Commits != 0 || !serial && res.Commits != wantCommits {
						t.Fatalf("%d executor commits, want %d (serial commit: %v)", res.Commits, wantCommits, serial)
					}

					// The snapshot: one row per phase the loop ran — the sweep
					// reports as the two phases it fuses — one interval per
					// worklist and pass, every row with wall and work time,
					// the commit phase under the name its kind of pass gives
					// it, and no speculation outside it.
					names := []string{"enumerate", "evaluate", "replace"}[kind.from:]
					if !evaluates {
						names = []string{"fused"}
					}
					var got []string
					for _, p := range res.Metrics.Phases {
						got = append(got, p.Name)
						if p.Intervals != int64(passes*len(lists)) || p.WallNs <= 0 {
							t.Fatalf("phase %s: %d intervals, wall %d ns; want %d intervals with wall time",
								p.Name, p.Intervals, p.WallNs, passes*len(lists))
						}
						if p.Name == "evaluate" && (p.Evals != want[hookEvaluate] || p.WastedEvals != int64(wantStale)) {
							t.Fatalf("evaluate row: %d evals, %d wasted; want %d, %d", p.Evals, p.WastedEvals, want[hookEvaluate], wantStale)
						}
						if inSweep := p.Name == "enumerate" || p.Name == "evaluate"; inSweep &&
							(p.WorkNs <= 0 || p.Speculation != metrics.Spec{CommittedNs: p.WorkNs}) {
							t.Fatalf("phase %s of the sweep: work %d ns, speculation %+v; want its chunk time as committed work and nothing else",
								p.Name, p.WorkNs, p.Speculation)
						}
					}
					if !slices.Equal(got, names) {
						t.Fatalf("snapshot phases %v, want %v", got, names)
					}
				})
			}
		}
	}
}

// TestNoSpeculativePhaseStartsNothing: a plan whose only phase is a
// serial commit is a plain loop on the caller, whatever worker count it
// is given.
func TestNoSpeculativePhaseStartsNothing(t *testing.T) {
	a := wideAIG(mixedWidths...)
	s := &script{a: a}
	base := goroutines()
	res, err := Run(context.Background(), a, commitOnly{s},
		Plan{Name: "toy", Partition: Flat, SerialCommit: true}, Exec{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := s.gLo.Load(), s.gHi.Load(); int(lo) != base || int(hi) != base {
		t.Fatalf("the hooks saw %d to %d goroutines, %d before the run", lo, hi, base)
	}
	if res.Threads != 1 || res.Commits != 0 {
		t.Fatalf("threads=%d executor commits=%d, want 1 and none", res.Threads, res.Commits)
	}
}

// TestCancelAtWorklistBoundary: a context cancelled while a worklist is
// at work stops the run before the next one starts, whatever phase it was
// in.
func TestCancelAtWorklistBoundary(t *testing.T) {
	for _, kind := range kinds {
		for _, serial := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/serial=%v", kind.name, serial), func(t *testing.T) {
				a := wideAIG(mixedWidths...)
				lists := ByLevel(a)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				s := &script{a: a, cancelAt: lists[2][100], cancel: cancel}
				res, err := Run(ctx, a, kind.pass(s), Plan{Name: "toy", Partition: ByLevel, SerialCommit: serial}, Exec{Workers: 2})
				if !errors.Is(err, context.Canceled) || !strings.HasPrefix(err.Error(), "toy: ") || !res.Incomplete {
					t.Fatalf("err = %v, incomplete = %v", err, res.Incomplete)
				}
				for _, e := range s.events() {
					if slices.Contains(lists[3], e.id) {
						t.Fatalf("hook %d ran on node %d of the list after the cancelled one", e.hook, e.id)
					}
				}
			})
		}
	}
}

// TestCancelInsideSerialSweep: a serial commit polls the context every
// SerialCancelStride nodes of its sweep, so a long list stops at the
// next multiple.
func TestCancelInsideSerialSweep(t *testing.T) {
	a := wideAIG(3*SerialCancelStride + 10)
	list := Flat(a)[0]
	if len(list) < 3*SerialCancelStride {
		t.Fatalf("list of %d nodes is too short for the test", len(list))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &script{a: a, cancelAt: list[SerialCancelStride+44], cancel: cancel}
	res, err := Run(ctx, a, commitOnly{s}, Plan{Name: "toy", Partition: Flat, SerialCommit: true}, Exec{})
	if !errors.Is(err, context.Canceled) || !res.Incomplete {
		t.Fatalf("err = %v, incomplete = %v", err, res.Incomplete)
	}
	if n := s.calls(hookCommit); n != 2*SerialCancelStride || res.Replacements != int(n) {
		t.Fatalf("%d commits, %d replacements; want the sweep to stop after %d", n, res.Replacements, 2*SerialCancelStride)
	}
}

// TestPanickingHook: a panic in any hook of any kind of pass, on the
// executor's workers or in a serial commit, comes back as the run's
// error.
func TestPanickingHook(t *testing.T) {
	for _, kind := range kinds {
		for _, serial := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/serial=%v/w%d", kind.name, serial, workers), func(t *testing.T) {
					a := wideAIG(mixedWidths...)
					s := &script{a: a, panicAt: ByLevel(a)[2][100]}
					base := goroutines()
					res, err := Run(context.Background(), a, kind.pass(s),
						Plan{Name: "toy", Partition: ByLevel, SerialCommit: serial}, Exec{Workers: workers})
					var pe *galois.PanicError
					if !errors.As(err, &pe) || pe.Value != "pass bug" || !res.Incomplete {
						t.Fatalf("err = %v, incomplete = %v", err, res.Incomplete)
					}
					goroutinesBack(t, base)
				})
			}
		}
	}
}

// The plan shapes of the engines.
var (
	levelPlan  = Plan{Name: "toy", Partition: ByLevel}                  // dacpara, rf, rs
	staticPlan = Plan{Name: "toy", Partition: LevelOrder}               // dac22, tcad23
	fusedPlan  = Plan{Name: "toy", Partition: Flat}                     // iccad18
	serialPlan = Plan{Name: "toy", Partition: Flat, SerialCommit: true} // abc
)

// scriptedVerdicts picks three AND nodes and assigns one verdict each:
// committed, stale, no-gain. The other nodes hold no candidate.
func scriptedVerdicts(a *aig.AIG) *script {
	var ands []int32
	a.ForEachAnd(func(id int32) { ands = append(ands, id) })
	verdicts := map[int32]Status{ands[0]: StatusCommitted, ands[1]: StatusStale, ands[2]: StatusNoGain}
	return &script{
		a:       a,
		stored:  func(id int32) bool { _, ok := verdicts[id]; return ok },
		verdict: func(id int32) Status { return verdicts[id] },
	}
}

// threeOneOne fails the test unless the run saw the three candidates of
// scriptedVerdicts.
func threeOneOne(t *testing.T, res Result) {
	t.Helper()
	if res.Attempts != 3 || res.Replacements != 1 || res.Stale != 1 {
		t.Fatalf("attempts=%d replacements=%d stale=%d, want 3/1/1", res.Attempts, res.Replacements, res.Stale)
	}
}

func TestDynamicAccounting(t *testing.T) {
	a := toyAIG()
	s := scriptedVerdicts(a)
	res, err := Run(context.Background(), a, enumerating{evaluating{s}}, levelPlan, Exec{Workers: 2, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	if s.begins != 1 || s.slots != 3 {
		t.Fatalf("begins=%d slots=%d, want 1 begin with workers+1=3 slots", s.begins, s.slots)
	}
	nAnds := int64(a.NumAnds())
	if s.calls(hookEnumerate) != nAnds || s.calls(hookEvaluate) != nAnds || s.calls(hookCommit) != 3 {
		t.Fatalf("enumerate=%d evaluate=%d commit=%d, want %d, %d and 3",
			s.calls(hookEnumerate), s.calls(hookEvaluate), s.calls(hookCommit), nAnds, nAnds)
	}
	threeOneOne(t, res)
	if res.Threads != 2 || res.Metrics == nil || len(res.Metrics.Phases) != 3 {
		t.Fatalf("bad result %+v", res)
	}
	// Neither the sweep nor the serial commit has activities, only time,
	// which counts as committed work.
	if res.Commits != 0 || res.Aborts != 0 {
		t.Fatalf("commits=%d aborts=%d, want no executor activity", res.Commits, res.Aborts)
	}
	var sweepNs int64
	for _, p := range res.Metrics.Phases[:2] {
		sweepNs += p.WorkNs
	}
	if replaceNs := res.Metrics.Phases[2].Speculation.CommittedNs; sweepNs <= 0 || res.CommittedWork.Nanoseconds() != sweepNs+replaceNs {
		t.Fatalf("committed work %d ns, want the sweep's %d plus the replace phase's %d", res.CommittedWork.Nanoseconds(), sweepNs, replaceNs)
	}
}

// TestDynamicSkipEnumerate: a pass that is no Enumerator (refactor,
// resub) gets no enumeration phase.
func TestDynamicSkipEnumerate(t *testing.T) {
	a := toyAIG()
	s := scriptedVerdicts(a)
	res, err := Run(context.Background(), a, evaluating{s},
		levelPlan, Exec{Workers: 2, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.calls(hookEnumerate); n != 0 || res.Metrics.Phases[0].Name != "evaluate" {
		t.Fatalf("%d enumerations, first phase %q", n, res.Metrics.Phases[0].Name)
	}
}

func TestDynamicSerialCommit(t *testing.T) {
	a := toyAIG()
	s := scriptedVerdicts(a)
	res, err := Run(context.Background(), a, enumerating{evaluating{s}}, levelPlan, Exec{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	threeOneOne(t, res)
	// Commit runs once per stored candidate, serially on slot 0.
	if n := len(s.logs[0]); n != 3 || s.calls(hookCommit) != 3 {
		t.Fatalf("%d calls on slot 0, %d commits, want 3 and 3", n, s.calls(hookCommit))
	}
}

// TestSerialCommitBooksItsWork: a serial commit phase is work like any
// other — one worker's, so no more than its wall time — and it counts in
// Result.CommittedWork beside the sweep's chunks.
func TestSerialCommitBooksItsWork(t *testing.T) {
	for _, tc := range []struct {
		name, phase string
		pass        func(*script) Pass[payload]
		plan        Plan
	}{
		{"level", "replace", kinds[2].pass, levelPlan},
		{"static", "replace", kinds[2].pass, staticPlan},
		{"serial", "fused", kinds[0].pass, serialPlan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := wideAIG(mixedWidths...)
			res, err := Run(context.Background(), a, tc.pass(&script{a: a, verdict: byID}), tc.plan,
				Exec{Workers: 2, Metrics: metrics.New()})
			if err != nil {
				t.Fatal(err)
			}
			var work int64
			for _, p := range res.Metrics.Phases {
				work += p.WorkNs
				if p.Name != tc.phase {
					continue
				}
				if p.WorkNs <= 0 || p.WorkNs > p.WallNs || p.Speculation != (metrics.Spec{CommittedNs: p.WorkNs}) {
					t.Fatalf("%s phase: work %d ns, wall %d ns, speculation %+v", p.Name, p.WorkNs, p.WallNs, p.Speculation)
				}
			}
			if res.CommittedWork.Nanoseconds() != work {
				t.Fatalf("committed work %d ns, the phases worked %d", res.CommittedWork.Nanoseconds(), work)
			}
		})
	}
}

// TestStaticAccounting: the static models' shape sweeps the whole graph
// through each phase once, in level order.
func TestStaticAccounting(t *testing.T) {
	a := toyAIG()
	s := scriptedVerdicts(a)
	res, err := Run(context.Background(), a, enumerating{evaluating{s}}, staticPlan, Exec{Workers: 2, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	if s.slots != 3 {
		t.Fatalf("slots=%d, want workers+1=3", s.slots)
	}
	var order []int32
	for _, e := range s.events() {
		if e.hook == hookCommit {
			order = append(order, e.id)
		}
	}
	if !slices.IsSortedFunc(order, func(x, y int32) int { return int(a.N(x).Level() - a.N(y).Level()) }) {
		t.Fatalf("commit order %v is not level order", order)
	}
	threeOneOne(t, res)
	for _, p := range res.Metrics.Phases {
		if p.Intervals != 1 {
			t.Fatalf("phase %s ran %d times over one worklist", p.Name, p.Intervals)
		}
	}
}

func TestFusedAccounting(t *testing.T) {
	a := toyAIG()
	s := scriptedVerdicts(a)
	s.stored = nil // every node is attempted; the three keep their verdicts, the rest skip
	res, err := Run(context.Background(), a, commitOnly{s}, fusedPlan, Exec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.slots != 3 {
		t.Fatalf("slots=%d, want workers+1=3", s.slots)
	}
	if n := s.calls(hookCommit); n != int64(a.NumAnds()) || res.Attempts != a.NumAnds() {
		t.Fatalf("commit ran %d times with %d attempts, want %d", n, res.Attempts, a.NumAnds())
	}
	if res.Replacements != 1 || res.Stale != 1 {
		t.Fatalf("replacements=%d stale=%d, want 1/1", res.Replacements, res.Stale)
	}
}

func TestSerialAccounting(t *testing.T) {
	a := toyAIG()
	s := scriptedVerdicts(a)
	s.stored = nil
	// Committing the first AND deletes one the sweep visits later (the
	// node feeding the first output, which no AND reads), as a real
	// replacement deletes the cone it leaves unreferenced.
	order := Flat(a)[0]
	dies := a.PO(0).Node()
	verdict := s.verdict
	s.verdict = func(id int32) Status {
		if id == order[0] {
			a.Replace(dies, aig.LitFalse, aig.ReplaceOptions{})
		}
		return verdict(id)
	}
	nAnds := a.NumAnds()
	res, err := Run(context.Background(), a, commitOnly{s}, serialPlan, Exec{Workers: 8}) // ignored: nothing to share
	if err != nil {
		t.Fatal(err)
	}
	if s.slots != 2 || res.Threads != 1 {
		t.Fatalf("slots=%d threads=%d, want 2/1", s.slots, res.Threads)
	}
	// The serial sweep still visits the dead node; the pass skips it,
	// as not an AND any more (StatusSkip), so it is no attempt.
	if a.N(dies).IsAnd() || !slices.Contains(order, dies) {
		t.Fatalf("node %d should be in the order %v and dead after the run", dies, order)
	}
	if got := s.calls(hookCommit); got != int64(nAnds) {
		t.Fatalf("commit ran %d times, want every AND of the order, %d", got, nAnds)
	}
	if res.Attempts != nAnds-1 || res.Replacements != 1 || res.Stale != 1 {
		t.Fatalf("attempts=%d replacements=%d stale=%d, want %d/1/1", res.Attempts, res.Replacements, res.Stale, nAnds-1)
	}
}

func TestMultiPassBeginsPerPass(t *testing.T) {
	a := toyAIG()
	s := &script{a: a}
	if _, err := Run(context.Background(), a, enumerating{evaluating{s}}, levelPlan, Exec{Workers: 1, Passes: 3}); err != nil {
		t.Fatal(err)
	}
	if s.begins != 3 {
		t.Fatalf("begins=%d, want one per pass (3)", s.begins)
	}
}

// TestCancellationContract pins the framework half of every pass's
// cancellation contract: a cancelled context stops each plan shape with
// context.Canceled in the chain, the error prefixed by the plan's name,
// the result marked Incomplete, and no hook run.
func TestCancellationContract(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name string
		pass func(*script) Pass[payload]
		plan Plan
	}{
		{"dynamic", kinds[2].pass, levelPlan},
		{"static", kinds[2].pass, staticPlan},
		{"fused", kinds[0].pass, fusedPlan},
		{"serial", kinds[0].pass, serialPlan},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := toyAIG()
			s := &script{a: a}
			res, err := Run(ctx, a, tc.pass(s), tc.plan, Exec{Workers: 2})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled in the chain", err)
			}
			if !strings.HasPrefix(err.Error(), "toy:") {
				t.Fatalf("error %q not prefixed with the plan name", err)
			}
			if !res.Incomplete || len(s.events()) != 0 {
				t.Fatalf("incomplete = %v after %d hook calls", res.Incomplete, len(s.events()))
			}
		})
	}
}

func TestPolicies(t *testing.T) {
	a := toyAIG()
	nAnds := a.NumAnds()

	byLevel := ByLevel(a)
	total := 0
	for i, wl := range byLevel {
		for _, id := range wl {
			if got := int(a.N(id).Level()); got != i+1 {
				t.Fatalf("ByLevel list %d holds node %d of level %d", i, id, got)
			}
			if !a.N(id).IsAnd() {
				t.Fatalf("ByLevel list %d holds non-AND node %d", i, id)
			}
			total++
		}
	}
	if total != nAnds {
		t.Fatalf("ByLevel covered %d ANDs, want %d", total, nAnds)
	}

	if order := LevelOrder(a); len(order) != 1 || !slices.Equal(order[0], slices.Concat(byLevel...)) {
		t.Fatalf("LevelOrder = %v, want ByLevel's lists %v as one", order, byLevel)
	}

	flat := Flat(a)
	if len(flat) != 1 || len(flat[0]) != nAnds {
		t.Fatalf("Flat produced %d lists (first %d nodes), want 1 list of %d ANDs",
			len(flat), len(flat[0]), nAnds)
	}
}
