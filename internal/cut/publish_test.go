package cut

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dacpara/internal/aig"
)

// The publish rule (see Manager): with no visitor, any number of workers
// may enumerate nodes of an unchanging graph at once. These tests run it
// at one, two and four workers, and are meant for -race: two workers
// inside one entry is a data race before it is a wrong cut set.

var publishWorkers = []int{1, 2, 4}

// sameSets fails the test unless the two managers hold bit-identical cut
// sets, leaf version stamps included, for every node of ids.
func sameSets(t *testing.T, what string, got, want *Manager, ids []int32) {
	t.Helper()
	for _, id := range ids {
		gs, gok := got.Cuts(id)
		ws, wok := want.Cuts(id)
		if gok != wok || !slices.Equal(gs, ws) {
			t.Fatalf("%s: node %d: %d cuts (ok=%v), the serial pass has %d (ok=%v)", what, id, len(gs), gok, len(ws), wok)
		}
	}
}

// together runs fn(0) … fn(workers-1), released at once, and returns the
// pools they enumerated through.
func together(workers int, fn func(worker int, pool *Pool)) []*Pool {
	pools := NewPools(workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			fn(w, pools[w])
		}()
	}
	close(start)
	wg.Wait()
	return pools
}

func merges(pools []*Pool) (n int) {
	for _, p := range pools {
		n += p.merges
	}
	return n
}

// levelOrder lists the live ANDs by level, the whole-graph worklist of
// the static engines.
func levelOrder(a *aig.AIG) []int32 {
	a.Levelize()
	var ids []int32
	a.ForEachAnd(func(id int32) { ids = append(ids, id) })
	slices.SortStableFunc(ids, func(x, y int32) int { return int(a.N(x).Level() - a.N(y).Level()) })
	return ids
}

// TestPublishSharedFaninOnce: every worker ensures parents of its own, all
// over one cone nobody has enumerated. Whoever gets to a node of the cone
// first claims it and the others wait for the set, so each node is merged
// exactly once, and every parent's set is the serial one.
func TestPublishSharedFaninOnce(t *testing.T) {
	const parentsPerWorker = 6
	a := randomAIG(rand.New(rand.NewSource(23)), 12, 150)
	shared := aig.MakeLit(a.PO(0).Node(), false)
	var parents []int32
	for len(parents) < 4*parentsPerWorker {
		// A fresh input each, so that no two parents are one node.
		parents = append(parents, a.And(shared, a.AddPI()).Node())
	}
	serial := NewManager(a, Params{})
	for _, id := range parents {
		serial.Ensure(id, nil)
	}
	var cone []int32 // what the parents' enumeration reaches: the serial pass stored a set there
	a.ForEachAnd(func(id int32) {
		if _, ok := serial.Cuts(id); ok {
			cone = append(cone, id)
		}
	})
	for _, workers := range publishWorkers {
		for round := 0; round < 40; round++ {
			m := NewManager(a, Params{})
			pools := together(workers, func(w int, pool *Pool) {
				for _, id := range parents[w*parentsPerWorker : (w+1)*parentsPerWorker] {
					if !m.EnsureP(id, nil, pool) {
						t.Errorf("worker %d: Ensure(%d) without a visitor failed", w, id)
					}
				}
			})
			mine := parents[:workers*parentsPerWorker]
			if got, want := merges(pools), len(cone)-len(parents)+len(mine); got != want {
				t.Fatalf("%d workers, round %d: %d merges for %d nodes", workers, round, got, want)
			}
			sameSets(t, fmt.Sprintf("%d workers, round %d", workers, round), m, serial, mine)
		}
	}
}

// sweep enumerates ids the way the engine's lock-free sweep does: the
// workers take chunks off a shared cursor, so one far up the list runs
// into cones the others are still enumerating.
func sweep(m *Manager, ids []int32, workers int) []*Pool {
	const chunk = 8
	var next atomic.Int64
	return together(workers, func(_ int, pool *Pool) {
		for {
			lo := int(next.Add(chunk)) - chunk
			if lo >= len(ids) {
				return
			}
			for _, id := range ids[lo:min(lo+chunk, len(ids))] {
				m.EnsureP(id, nil, pool)
			}
		}
	})
}

// TestWholeGraphSweepMatchesSerial: a whole-graph sweep in level order
// gives the cut sets of a serial pass, bit for bit — on a cold manager,
// and on the same manager after NextEpoch once the graph changed
// underneath it — at every width, so every stride of stored cut goes
// through the publish protocol.
func TestWholeGraphSweepMatchesSerial(t *testing.T) {
	for _, workers := range publishWorkers {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			for _, k := range ks {
				t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) { wholeGraphSweep(t, Params{K: k}, workers) })
			}
		})
	}
}

func wholeGraphSweep(t *testing.T, p Params, workers int) {
	rng := rand.New(rand.NewSource(31))
	a := randomAIG(rng, 16, 3000)
	serialSweep := func() *Manager {
		m := NewManager(a, p)
		for _, id := range levelOrder(a) {
			m.Ensure(id, nil)
		}
		return m
	}

	ids := levelOrder(a)
	m := NewManager(a, p)
	pools := sweep(m, ids, workers)
	if got := merges(pools); got != len(ids) {
		t.Fatalf("cold: %d merges for %d nodes", got, len(ids))
	}
	sameSets(t, "cold", m, serialSweep(), ids)

	// Rewrite a few dozen nodes into new logic over their fanins,
	// as a pass would: some stored sets lose cuts, some nodes are
	// new, and NextEpoch has every set recomputed.
	for i := 0; i < 40; i++ {
		id := ids[rng.Intn(len(ids))]
		if n := a.N(id); n.IsAnd() {
			if repl := a.Or(n.Fanin0(), n.Fanin1().Not()); repl.Node() != id {
				a.Replace(id, repl, aig.ReplaceOptions{CascadeMerge: true})
			}
		}
	}
	ids = levelOrder(a)
	m.NextEpoch()
	pools = sweep(m, ids, workers)
	if got := merges(pools); got != len(ids) {
		t.Fatalf("warm: %d merges for %d nodes", got, len(ids))
	}
	sameSets(t, "warm", m, serialSweep(), ids)
}

// TestAbortGivesTheClaimBack: an enumeration that a visitor aborts —
// Ensure part-way down a cone, Refresh at the first fanin — must leave
// the entries it had claimed claimable, or the next visitor would wait
// for a publication that never comes.
func TestAbortGivesTheClaimBack(t *testing.T) {
	a := randomAIG(rand.New(rand.NewSource(5)), 8, 200)
	root := a.PO(0).Node()
	cold := NewManager(a, Params{})
	want := ensured(cold, root)
	ensure := func(m *Manager) []Cut {
		t.Helper()
		done := make(chan []Cut, 1)
		go func() {
			set := ensured(m, root)
			done <- set
		}()
		select {
		case set := <-done:
			return set
		case <-time.After(10 * time.Second):
			t.Fatal("Ensure waits for an entry an aborted enumeration left claimed")
			return nil
		}
	}

	// Ensure, refused at the twentieth node it visits: the claims on the
	// path down to it are all held at that point.
	m := NewManager(a, Params{})
	visits := 0
	if m.Ensure(root, func(int32) bool { visits++; return visits < 20 }) {
		t.Fatal("the visitor refused a node and Ensure went through")
	}
	if _, ok := m.Cuts(root); ok {
		t.Fatal("an aborted Ensure left a set on the root")
	}
	if got := ensure(m); !slices.Equal(got, want) {
		t.Fatal("the set enumerated after an aborted Ensure differs from a cold one")
	}

	// Refresh under a lock that loses the root's first fanin.
	f0 := a.N(root).Fanin0().Node()
	if m.RefreshP(root, func(id int32) bool { return id != f0 }, NewPool()) {
		t.Fatal("the visitor refused a fanin and Refresh went through")
	}
	if _, ok := m.Cuts(root); ok {
		t.Fatal("an aborted Refresh left the set it was to replace in place")
	}
	if got := ensure(m); !slices.Equal(got, want) {
		t.Fatal("the set enumerated after an aborted Refresh differs from a cold one")
	}
}
