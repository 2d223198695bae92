package metrics

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestNopCollectorIsSafe calls every method on the disabled (nil)
// collector: each must be a no-op, and Shards must return nil so engines
// can use it as the metrics-off fast-path test.
func TestNopCollectorIsSafe(t *testing.T) {
	c := Nop
	if c.Enabled() {
		t.Fatal("Nop reports enabled")
	}
	c.TraceConflicts(8)
	c.StartRun("none", 4, 1)
	if sh := c.Shards(4); sh != nil {
		t.Fatalf("Nop.Shards returned %v, want nil", sh)
	}
	c.MergeShards(nil)
	c.PhaseStart(PhaseEvaluate)
	c.PhaseEnd(PhaseEvaluate, Spec{Commits: 1, CommittedNs: 100})
	c.ObserveLevel(17)
	c.FinishRun(QoR{InitialAnds: 10, FinalAnds: 9})
	if s := c.Snapshot(); s != nil {
		t.Fatalf("Nop.Snapshot returned %+v, want nil", s)
	}
	var sh *Shard
	sh.Conflict(PhaseFused, 3) // nil shard must be safe too
}

func TestPhaseAccounting(t *testing.T) {
	c := New()
	c.StartRun("test-engine", 2, 3)
	c.PhaseStart(PhaseEvaluate)
	time.Sleep(time.Millisecond)
	c.PhaseEnd(PhaseEvaluate, Spec{Commits: 10, Aborts: 2, CommittedNs: 1000, WastedNs: 250})
	// A second interval without an explicit PhaseStart still counts the
	// counter delta, just no wall time.
	c.PhaseEnd(PhaseEvaluate, Spec{Commits: 5, CommittedNs: 500})
	c.ObserveLevel(1)
	c.ObserveLevel(3)
	c.ObserveLevel(1024)
	c.FinishRun(QoR{InitialAnds: 100, FinalAnds: 90, InitialDelay: 12, FinalDelay: 11, Replacements: 7, Attempts: 9, Stale: 1})
	s := c.Snapshot()
	if s == nil {
		t.Fatal("nil snapshot from enabled collector")
	}
	if s.Schema != SchemaMetrics {
		t.Fatalf("schema %q", s.Schema)
	}
	if s.Engine != "test-engine" || s.Workers != 2 || s.Passes != 3 {
		t.Fatalf("run identity wrong: %+v", s)
	}
	if s.WallNs < time.Millisecond.Nanoseconds() {
		t.Fatalf("wall %dns, slept 1ms", s.WallNs)
	}
	if len(s.Phases) != 1 {
		t.Fatalf("phases %+v, want one (evaluate)", s.Phases)
	}
	p := s.Phases[0]
	if p.Name != "evaluate" || p.Intervals != 2 {
		t.Fatalf("phase %+v", p)
	}
	if p.WallNs < time.Millisecond.Nanoseconds() {
		t.Fatalf("phase wall %dns, interval slept 1ms", p.WallNs)
	}
	// Work = committed + wasted activity time of both deltas.
	if p.WorkNs != 1750 {
		t.Fatalf("phase work %dns, want 1750", p.WorkNs)
	}
	if p.Speculation.Commits != 15 || p.Speculation.Aborts != 2 {
		t.Fatalf("phase speculation %+v", p.Speculation)
	}
	if s.Speculation != (Spec{Commits: 15, Aborts: 2, CommittedNs: 1500, WastedNs: 250}) {
		t.Fatalf("run speculation %+v", s.Speculation)
	}
	wantLevels := []LevelBucket{
		{MinWidth: 1, Levels: 1, Nodes: 1},
		{MinWidth: 2, Levels: 1, Nodes: 3},
		{MinWidth: 1024, Levels: 1, Nodes: 1024},
	}
	if len(s.Levels) != len(wantLevels) {
		t.Fatalf("level histogram %+v", s.Levels)
	}
	for i, want := range wantLevels {
		if s.Levels[i] != want {
			t.Fatalf("level bucket %d: %+v, want %+v", i, s.Levels[i], want)
		}
	}
	q := s.QoR
	if q.InitialAnds != 100 || q.FinalAnds != 90 || q.Replacements != 7 || q.Attempts != 9 || q.Stale != 1 {
		t.Fatalf("qor %+v", q)
	}
	// The qor object's names and order are part of dacpara-metrics/v1.
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		QoR json.RawMessage `json:"qor"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	const wire = `{"initial_ands":100,"final_ands":90,"initial_delay":12,"final_delay":11,` +
		`"replacements":7,"attempts":9,"stale":1,"incomplete":false}`
	if string(doc.QoR) != wire {
		t.Fatalf("qor object %s, want %s", doc.QoR, wire)
	}
}

func TestWastedFraction(t *testing.T) {
	if f := (Spec{}).WastedFraction(); f != 0 {
		t.Fatalf("empty spec wasted fraction %v", f)
	}
	if f := (Spec{CommittedNs: 300, WastedNs: 100}).WastedFraction(); f != 0.25 {
		t.Fatalf("wasted fraction %v, want 0.25", f)
	}
}

// TestStartRunResetsButKeepsTraceBudget: a collector reused across flow
// steps must not leak the previous step's counters, but the conflict
// sample budget set before the first run persists.
func TestStartRunResetsButKeepsTraceBudget(t *testing.T) {
	c := New()
	c.TraceConflicts(3)
	c.StartRun("first", 1, 1)
	sh := c.Shards(1)
	sh[0].Evals = 42
	sh[0].Conflict(PhaseEnumerate, 7)
	c.MergeShards(sh)
	c.PhaseEnd(PhaseReplace, Spec{Commits: 1})
	c.FinishRun(QoR{Replacements: 5})

	c.StartRun("second", 1, 1)
	c.FinishRun(QoR{})
	s := c.Snapshot()
	if s.Engine != "second" {
		t.Fatalf("engine %q after reset", s.Engine)
	}
	if len(s.Phases) != 0 || s.Speculation.Commits != 0 || s.QoR.Replacements != 0 || len(s.ConflictSamples) != 0 {
		t.Fatalf("state leaked across StartRun: %+v", s)
	}
	// The budget survives: shards handed out after the reset still trace.
	c.StartRun("third", 1, 1)
	sh = c.Shards(1)
	for i := 0; i < 5; i++ {
		sh[0].Conflict(PhaseFused, int32(i))
	}
	c.MergeShards(sh)
	c.FinishRun(QoR{})
	if s := c.Snapshot(); len(s.ConflictSamples) != 3 {
		t.Fatalf("traced %d conflicts after reset, want budget 3", len(s.ConflictSamples))
	}
}

func TestConflictSampleBudget(t *testing.T) {
	c := New()
	c.TraceConflicts(2)
	c.StartRun("trace", 1, 1)
	sh := c.Shards(1)
	for i := 0; i < 10; i++ {
		sh[0].Conflict(PhaseReplace, int32(i))
	}
	c.MergeShards(sh)
	c.FinishRun(QoR{})
	s := c.Snapshot()
	if len(s.ConflictSamples) != 2 {
		t.Fatalf("%d samples, budget 2", len(s.ConflictSamples))
	}
	if s.ConflictSamples[0] != (ConflictSample{Phase: "replace", Node: 0}) {
		t.Fatalf("sample %+v", s.ConflictSamples[0])
	}
}

// TestMergeShardsTotalsAndReuse checks that merging folds every shard
// field into the right phase aggregate and leaves the shards zeroed for
// the next barrier interval.
func TestMergeShardsTotalsAndReuse(t *testing.T) {
	c := New()
	c.StartRun("merge", 3, 1)
	for round := 0; round < 2; round++ {
		sh := c.Shards(3)
		for i := range sh {
			if sh[i].Evals != 0 || sh[i].EnumNs != 0 {
				t.Fatalf("round %d: shard %d not zeroed: %+v", round, i, sh[i])
			}
			sh[i].EnumNs = 10
			sh[i].EvalNs = 20
			sh[i].ReplaceNs = 30
			sh[i].Evals = 4
			sh[i].WastedEvals = 1
		}
		c.MergeShards(sh)
	}
	c.FinishRun(QoR{})
	s := c.Snapshot()
	byName := map[string]PhaseSnapshot{}
	for _, p := range s.Phases {
		byName[p.Name] = p
	}
	if p := byName["enumerate"]; p.WorkNs != 60 {
		t.Fatalf("enumerate work %d, want 60", p.WorkNs)
	}
	if p := byName["evaluate"]; p.WorkNs != 120 || p.Evals != 24 || p.WastedEvals != 6 {
		t.Fatalf("evaluate phase %+v", p)
	}
	if p := byName["replace"]; p.WorkNs != 180 {
		t.Fatalf("replace work %d, want 180", p.WorkNs)
	}
}

// TestShardHammerParallel is the race detector's view of the shard
// protocol: many workers write their own shards concurrently, the
// orchestrator merges at the join. Run with -race.
func TestShardHammerParallel(t *testing.T) {
	const workers = 8
	iters := 5000
	if testing.Short() {
		iters = 500
	}
	c := New()
	c.TraceConflicts(4)
	for pass := 0; pass < 3; pass++ {
		c.StartRun("hammer", workers, 1)
		sh := c.Shards(workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(s *Shard) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					s.EnumNs++
					s.EvalNs += 2
					s.ReplaceNs += 3
					s.Evals++
					if i%100 == 0 {
						s.WastedEvals++
						s.Conflict(PhaseEvaluate, int32(i))
					}
				}
			}(&sh[w])
		}
		wg.Wait()
		c.MergeShards(sh)
		c.FinishRun(QoR{})
		s := c.Snapshot()
		byName := map[string]PhaseSnapshot{}
		for _, p := range s.Phases {
			byName[p.Name] = p
		}
		n := int64(workers * iters)
		if p := byName["enumerate"]; p.WorkNs != n {
			t.Fatalf("pass %d: enumerate work %d, want %d", pass, p.WorkNs, n)
		}
		if p := byName["evaluate"]; p.WorkNs != 2*n || p.Evals != n {
			t.Fatalf("pass %d: evaluate phase %+v", pass, p)
		}
		if p := byName["replace"]; p.WorkNs != 3*n {
			t.Fatalf("pass %d: replace work %d, want %d", pass, p.WorkNs, 3*n)
		}
		wantWasted := int64(workers * ((iters + 99) / 100))
		if p := byName["evaluate"]; p.WastedEvals != wantWasted {
			t.Fatalf("pass %d: wasted %d, want %d", pass, p.WastedEvals, wantWasted)
		}
		if len(s.ConflictSamples) != workers*4 {
			t.Fatalf("pass %d: %d samples, want %d", pass, len(s.ConflictSamples), workers*4)
		}
	}
}

func TestObserveLevelBucketing(t *testing.T) {
	c := New()
	c.StartRun("levels", 1, 1)
	c.ObserveLevel(0)  // ignored
	c.ObserveLevel(-3) // ignored
	for w := 1; w <= 64; w++ {
		c.ObserveLevel(w)
	}
	c.FinishRun(QoR{})
	s := c.Snapshot()
	var levels, nodes int64
	for _, b := range s.Levels {
		levels += b.Levels
		nodes += b.Nodes
	}
	if levels != 64 || nodes != 64*65/2 {
		t.Fatalf("histogram totals levels=%d nodes=%d", levels, nodes)
	}
	// Width 64 lands in the [64, 128) bucket.
	last := s.Levels[len(s.Levels)-1]
	if last.MinWidth != 64 || last.Levels != 1 || last.Nodes != 64 {
		t.Fatalf("top bucket %+v", last)
	}
}
