package dacpara

import (
	"context"
	"reflect"
	"testing"

	"dacpara/internal/aig"
)

// TestCutCacheByteIdentity pins the persistent cut-set contract: a
// CutCache must be a pure performance artifact. Every deterministic
// engine run with a cache shared across its passes has to produce a
// network byte-identical to the same run enumerating fresh cut sets per
// pass (the nil-cache behavior). iccad18 is covered at one worker only —
// its multi-worker commit order is nondeterministic by design (see
// determinism_test.go), so byte comparison is meaningless there — and so
// is dacpara's at Workers > 1: its w4 case checks that the cached run is
// clean, equivalent and within 1 % of the fresh run's AND count.
func TestCutCacheByteIdentity(t *testing.T) {
	net, err := Generate("sin", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		engine  Engine
		workers int
	}{
		{"abc", EngineSerial, 1},
		{"dacpara-w1", EngineDACPara, 1},
		{"dacpara-w4", EngineDACPara, 4},
		{"dac22-w4", EngineStaticDAC22, 4},
		{"tcad23-w4", EngineStaticTCAD23, 4},
		{"iccad18-w1", EngineLockPar, 1},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := Config{Workers: tc.workers, Passes: 3}

			fresh := net.Clone()
			if _, err := Rewrite(fresh, tc.engine, base); err != nil {
				t.Fatal(err)
			}

			cached := net.Clone()
			ccfg := base
			ccfg.CutCache = NewCutCache()
			if _, err := Rewrite(cached, tc.engine, ccfg); err != nil {
				t.Fatal(err)
			}

			if tc.engine == EngineDACPara && tc.workers > 1 {
				checkCleanAndEquivalent(t, net, cached)
				if d := cached.NumAnds() - fresh.NumAnds(); d*100 > fresh.NumAnds() || -d*100 > fresh.NumAnds() {
					t.Fatalf("cut cache moved the AND count by more than 1%%: fresh %d vs cached %d", fresh.NumAnds(), cached.NumAnds())
				}
				return
			}
			if df, dc := aig.StructuralDigest(fresh), aig.StructuralDigest(cached); df != dc {
				t.Fatalf("cut cache changed the result: fresh %s vs cached %s (%d vs %d ANDs)",
					df, dc, fresh.NumAnds(), cached.NumAnds())
			}
		})
	}
}

// TestFlowCutCacheByteIdentity pins the same contract one level up: a
// multi-step flow shares one auto-installed cache across ALL its steps
// (rewrite invalidates cuts that resub recomputes, balance clones miss
// the cache entirely), and must land on the same network as driving the
// script one command at a time through separate Flow calls, each of
// which starts a fresh cache. One worker: the contract under test is
// cache transparency, not scheduling (dacpara at Workers > 1 is not
// byte-deterministic on a multi-core host).
func TestFlowCutCacheByteIdentity(t *testing.T) {
	net, err := Generate("sin", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	const script = "rw; rf -p; rs -p; b; rw"

	shared := net.Clone()
	_, sharedFinal, err := Flow(shared, script, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	stepwise := net.Clone()
	for _, step := range []string{"rw", "rf -p", "rs -p", "b", "rw"} {
		var ferr error
		if _, stepwise, ferr = Flow(stepwise, step, Config{Workers: 1}); ferr != nil {
			t.Fatal(ferr)
		}
	}

	if ds, dw := aig.StructuralDigest(sharedFinal), aig.StructuralDigest(stepwise); ds != dw {
		t.Fatalf("shared flow cache changed the result: %s vs %s (%d vs %d ANDs)",
			ds, dw, sharedFinal.NumAnds(), stepwise.NumAnds())
	}
}

// TestCutCacheAcrossInPlaceFraig covers the one rebuild that keeps the
// caller's pointer: Fraig adopts a freshly numbered network, so a cache
// shared by the rewrites before and after it holds cut sets about IDs
// that now name other nodes. Revalidation (version, fanin literals,
// fanin-set generations) must discard every one of them: the run lands
// on the network the same calls build with no cache. (The flow's fraig
// step hands back a new pointer and misses the cache outright.)
func TestCutCacheAcrossInPlaceFraig(t *testing.T) {
	net, err := Generate("sin", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cache *CutCache) *Network {
		n := net.Clone()
		cfg := Config{Workers: 1, CutCache: cache}
		if _, err := Rewrite(n, EngineDACPara, cfg); err != nil {
			t.Fatal(err)
		}
		Fraig(n)
		if _, err := Rewrite(n, EngineDACPara, cfg); err != nil {
			t.Fatal(err)
		}
		return n
	}
	fresh, cached := run(nil), run(NewCutCache())
	checkCleanAndEquivalent(t, net, cached)
	if df, dc := aig.StructuralDigest(fresh), aig.StructuralDigest(cached); df != dc {
		t.Fatalf("cut cache changed the result: fresh %s vs cached %s (%d vs %d ANDs)",
			df, dc, fresh.NumAnds(), cached.NumAnds())
	}
}

// cachedGraphs lists the graphs a cache holds managers for. The cache
// offers no view of its contents, so the test reads its map by
// reflection.
func cachedGraphs(c *CutCache) map[uintptr]bool {
	graphs := map[uintptr]bool{}
	for _, key := range reflect.ValueOf(c).Elem().FieldByName("m").MapKeys() {
		graphs[key.FieldByName("graph").Pointer()] = true
	}
	return graphs
}

// TestFlowCutCacheKeepsOneGeneration: balance and fraig hand the flow a
// new graph, and a guarded step rewrites scratch clones; the cut sets of
// a graph the flow has left behind can never hit again, so the flow drops
// them instead of pinning every generation until it returns. What is left
// is the final network's — or nothing, when every rewrite ran on a clone.
func TestFlowCutCacheKeepsOneGeneration(t *testing.T) {
	for _, guard := range []bool{false, true} {
		net, err := Generate("sin", ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		cache := NewCutCache()
		out, err := Run(context.Background(), net, Job{Flow: "b; rw; b; rw; fraig; rw", Workers: 1, Guard: guard},
			Hooks{Attach: Config{CutCache: cache}})
		if err != nil {
			t.Fatal(err)
		}
		graphs := cachedGraphs(cache)
		if final := reflect.ValueOf(out.Net).Pointer(); guard && len(graphs) != 0 || !guard && (len(graphs) != 1 || !graphs[final]) {
			t.Fatalf("guard=%v: the cache holds managers for %d graphs", guard, len(graphs))
		}
	}
}
