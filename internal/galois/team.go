package galois

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// spinBudget is how long a waiting worker spins, yielding its processor
// on every turn, before it parks. It only has to be of the order of the
// gap between two phases (≈265 µs on the 32k-AND MtM benchmark circuit,
// ≈40 µs on the deep arithmetic one), so that a helper is still on its
// processor when the next phase is published, while one that has had
// nothing to do for longer (a serial commit, a stretch of lists that
// stay on the caller) stops burning it. Measured at two workers on the
// 2-vCPU box, seconds per operation (EXPERIMENTS.md E11): 50 µs, 200 µs
// and 1 ms read the same (mtm_wide 0.25–0.28, 0.25–0.26, 0.24–0.27;
// arith_deep 0.23–0.24, 0.22–0.23, 0.22–0.25); at 0, park at once,
// mtm_wide is back at the fork-join's 0.32–0.34 and arith_deep, 0.30–0.32,
// behind it (0.25–0.27). Waking a parked goroutine on an idle processor,
// not the hand-out, is what a barrier costs.
const spinBudget = 200 * time.Microsecond

// The hand-out rule (Split). A list is cut into about four chunks per
// worker, so that a worker that falls behind leaves the others something
// to take, in chunks of at most maxChunk items, beyond which the shared
// cursor does not show in a profile; with chunks of 32 whatever the
// list, an ≈85-node MtM level made three chunks for two workers and
// mtm_wide took 0.28–0.29 s against 0.25–0.26 (two or sixteen chunks per
// worker: 0.25–0.28, 0.26–0.27). A list shorter than inlineCutoff stays
// on the caller: handing out costs ≈0.9 µs when the helper is spinning
// (BenchmarkPhaseDispatch) and an item 3–10 µs, so there is little to
// win below four items and a wake-up to lose when the helper is not.
// arith_deep, most of whose levels hold 4–15 nodes, took 0.24–0.25 s
// with a cutoff of 16, 0.22–0.26 with 8, 0.21–0.23 with 4 and with 2.
const (
	maxChunk     = 32
	inlineCutoff = 4
)

// participantBits is the width of the participant count in the phase
// word; the generation above it then has 40 bits, which a team that
// publishes a phase every microsecond exhausts in twelve days.
const (
	participantBits = 24
	participantMask = 1<<participantBits - 1
)

// parker is the place one goroutine waits at: it spins for spinBudget and
// then blocks on token until wake hands it one.
type parker struct {
	parked atomic.Bool
	token  chan struct{} // capacity 1: at most one wake is ever owed
}

// wait returns once ready reports true. It yields on every turn of the
// spin, so a team wider than GOMAXPROCS makes progress, and the spin is
// bounded by the monotonic clock, so it ends however slow a turn is.
func (p *parker) wait(ready func() bool) {
	for !ready() {
		start := time.Now()
		for time.Since(start) < spinBudget {
			runtime.Gosched()
			if ready() {
				return
			}
		}
		// Announce, then look again: wake looks at parked after the state
		// ready reads was written, so one of the two sees the other.
		p.parked.Store(true)
		if ready() && p.parked.CompareAndSwap(true, false) {
			return
		}
		<-p.token
	}
}

// wake releases the waiter if it has parked (or is about to).
func (p *parker) wake() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		p.token <- struct{}{}
	}
}

// helper is the waiting place of one helper goroutine, padded so that two
// helpers' flags do not share a cache line.
type helper struct {
	parker
	_ [48]byte
}

// Team is a fixed set of workers that lives for one engine run: the
// goroutine that calls Do is worker 1, and Workers()−1 helper goroutines,
// started once by NewTeam and stopped by Close, are workers 2 and up. It
// is the repository's one fork-join mechanism (Galois itself starts its
// threads once and lets them meet at spinning barriers): a phase is
// published through a generation word, helpers wait for the next
// generation on their parkers, and the caller waits the same way for the
// last of them to finish. Do and Close must come from one goroutine.
type Team struct {
	helpers []helper // helpers[i] belongs to worker i+2

	// phase is generation<<participantBits | participants. One word
	// carries both, so a helper that takes no part in a phase learns that
	// without reading fn, which the caller may already be replacing.
	phase   atomic.Uint64
	fn      func(worker int) // written before phase moves; nil closes the team
	pending atomic.Int32     // helpers that have not finished the phase
	caller  parker

	panicked atomic.Pointer[PanicError]
}

// NewTeam starts a team of the given width (0 means GOMAXPROCS). The
// caller owes it a Close.
func NewTeam(workers int) *Team {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, participantMask)
	t := &Team{helpers: make([]helper, workers-1)}
	t.caller.token = make(chan struct{}, 1)
	for i := range t.helpers {
		t.helpers[i].token = make(chan struct{}, 1)
		go t.help(i + 2)
	}
	return t
}

// Workers returns the team's width, the caller included.
func (t *Team) Workers() int { return len(t.helpers) + 1 }

// Split reports how a list of n items is handed to the team: to how many
// workers, through what cursor. One worker means the list stays on the
// caller.
func (t *Team) Split(n int) (workers int, cur *Cursor) {
	w := t.Workers()
	cur = &Cursor{n: n, chunk: min(max(n/(4*w), 1), maxChunk)}
	if n < inlineCutoff {
		return 1, cur
	}
	return min(w, (n+cur.chunk-1)/cur.chunk), cur
}

// Cursor hands the indices of a list out in chunks; the workers of a
// phase share one.
type Cursor struct {
	next     atomic.Int64
	n, chunk int
}

// Next returns the next chunk [lo, hi) of the list, or false when the
// list is used up.
func (c *Cursor) Next() (lo, hi int, ok bool) {
	lo = int(c.next.Add(int64(c.chunk))) - c.chunk
	return lo, min(lo+c.chunk, c.n), lo < c.n
}

// Do runs fn(1) on the caller and fn(2) … fn(n) on helpers, and returns
// when all of them have: the barrier orders everything the workers wrote
// before everything the caller does next. Helpers above n are neither
// woken nor waited for. A panic in fn is recovered on the worker it
// happened on and returned as a *PanicError once the phase is over.
func (t *Team) Do(n int, fn func(worker int)) error {
	if n > t.Workers() {
		panic("galois: phase wider than the team")
	}
	if n > 1 {
		t.publish(n, fn)
	}
	t.call(fn, 1)
	if n > 1 {
		t.caller.wait(t.finished)
	}
	if t.panicked.Load() != nil {
		return t.panicked.Swap(nil)
	}
	return nil
}

// Close stops the helpers and returns when each has taken its leave.
func (t *Team) Close() {
	if len(t.helpers) == 0 {
		return
	}
	t.publish(t.Workers(), nil)
	t.caller.wait(t.finished)
}

func (t *Team) finished() bool { return t.pending.Load() == 0 }

// publish opens the next phase for workers 2 … n and wakes those of them
// that parked.
func (t *Team) publish(n int, fn func(worker int)) {
	t.fn = fn
	t.pending.Store(int32(n - 1))
	gen := t.phase.Load()>>participantBits + 1
	t.phase.Store(gen<<participantBits | uint64(n))
	for i := range t.helpers[:n-1] {
		t.helpers[i].wake()
	}
}

// help is the life of worker tag: wait for a phase it takes part in, run
// it, report, until the phase is the closing one.
func (t *Team) help(tag int) {
	h := &t.helpers[tag-2]
	var seen uint64
	for {
		h.wait(func() bool { return t.phase.Load() != seen })
		seen = t.phase.Load()
		if tag > int(seen&participantMask) {
			continue
		}
		fn := t.fn
		if fn != nil {
			t.call(fn, tag)
		}
		if t.pending.Add(-1) == 0 {
			t.caller.wake()
		}
		if fn == nil {
			return
		}
	}
}

// call runs one worker's share of a phase; a panic must neither kill the
// process nor keep the worker from reporting.
func (t *Team) call(fn func(worker int), tag int) {
	defer func() {
		if p := recover(); p != nil {
			t.panicked.CompareAndSwap(nil, &PanicError{Value: p, Stack: debug.Stack()})
		}
	}()
	fn(tag)
}
