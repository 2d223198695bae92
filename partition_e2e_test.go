package dacpara

import (
	"context"
	"strings"
	"testing"

	"dacpara/internal/aig"
)

// runPartitionedJob runs a verified partitioned job — engine, or flow
// when script is set — with cfg's knobs and attachments.
func runPartitionedJob(net *Network, engine Engine, script string, cfg Config, shards int) (Result, error) {
	job := Job{Engine: engine, Flow: script, Partition: shards, Verify: true}.WithKnobs(cfg)
	out, err := Run(context.Background(), net, job, Hooks{Attach: cfg})
	return out.Result, err
}

// TestPartitionedRewriteEquivalence is the acceptance gate of the
// partitioning subsystem: every tiny-suite circuit, partitioned into
// 2/4/8 shards and rewritten shard by shard, must stitch back into a
// circuit equivalent to the unpartitioned input. A verified partitioned
// job checks internally (per-shard CEC plus the whole-circuit check) and
// errors on any disproof, so a nil error IS the equivalence assertion;
// the test additionally re-checks one configuration externally against
// a pristine clone so a verification bypass inside the facade cannot
// hide.
func TestPartitionedRewriteEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range BenchmarkNames(ScaleTiny) {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			golden, err := Generate(name, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 4, 8} {
				net := golden.Clone()
				res, err := runPartitionedJob(net, EngineDACPara, "", Config{Workers: 2}, shards)
				if err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				if res.FinalAnds != net.NumAnds() {
					t.Fatalf("%d shards: result reports %d ANDs, network has %d", shards, res.FinalAnds, net.NumAnds())
				}
				if shards == 4 {
					if eq, err := Equivalent(golden, net); err != nil || !eq {
						t.Fatalf("%d shards: external check disproved (eq=%v err=%v)", shards, eq, err)
					}
				}
			}
		})
	}
}

// TestPartitionedMetricsSection: a partitioned run with a collector
// attached emits the partition section of dacpara-metrics/v1 — split
// shape, per-shard QoR, and the pipeline phases.
func TestPartitionedMetricsSection(t *testing.T) {
	net, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 2, Metrics: NewMetrics()}
	res, err := runPartitionedJob(net, EngineDACPara, "", cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Metrics
	if snap == nil || snap.Partition == nil {
		t.Fatal("no partition section in the metrics snapshot")
	}
	p := snap.Partition
	if p.RequestedShards != 4 || p.Shards < 2 || p.Shards > 4 {
		t.Fatalf("shard counts: %+v", p)
	}
	if len(p.PerShard) != p.Shards {
		t.Fatalf("%d per-shard rows for %d shards", len(p.PerShard), p.Shards)
	}
	total := 0
	for _, sh := range p.PerShard {
		total += sh.InitialAnds
	}
	if total != res.InitialAnds {
		t.Fatalf("per-shard initial ANDs sum %d, input had %d", total, res.InitialAnds)
	}
	phases := 0
	for _, ph := range snap.Phases {
		if strings.HasPrefix(ph.Name, "partition/") {
			phases++
		}
	}
	if phases != 5 {
		t.Fatalf("%d partition/* phases, want 5 (select/extract/optimize/stitch/verify)", phases)
	}
	if !strings.HasPrefix(res.Engine, "partition(") {
		t.Fatalf("engine name %q", res.Engine)
	}
	var sb strings.Builder
	snap.Format(&sb)
	if !strings.Contains(sb.String(), "partition: shards=") {
		t.Fatalf("Format() missing partition section:\n%s", sb.String())
	}
}

// TestPartitionedFlow: a whole flow script applied per shard.
func TestPartitionedFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	golden, err := Generate("sin", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	net := golden.Clone()
	res, err := runPartitionedJob(net, "", "b; rw; b", Config{Workers: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != "partition(flow)" {
		t.Fatalf("engine name %q", res.Engine)
	}
	if eq, err := Equivalent(golden, net); err != nil || !eq {
		t.Fatalf("partitioned flow disproved (eq=%v err=%v)", eq, err)
	}
}

// TestPartitionedShardBounds: shard counts outside 2..MaxPartitionShards
// are rejected up front (0 is not a shard count: it asks for a
// whole-circuit run).
func TestPartitionedShardBounds(t *testing.T) {
	net, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{1, -3, MaxPartitionShards + 1} {
		if _, err := runPartitionedJob(net.Clone(), EngineDACPara, "", Config{Workers: 1}, bad); err == nil {
			t.Fatalf("shards=%d accepted", bad)
		}
	}
}

// TestPartitionedDeterminism: the full partitioned pipeline is
// deterministic for a deterministic engine — same input, same shard
// count, same digest.
func TestPartitionedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	golden, err := Generate("square", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	for i := 0; i < 2; i++ {
		net := golden.Clone()
		if _, err := runPartitionedJob(net, EngineSerial, "", Config{Workers: 1}, 4); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, aig.StructuralDigest(net))
	}
	if digests[0] != digests[1] {
		t.Fatalf("partitioned abc run not deterministic: %s vs %s", digests[0], digests[1])
	}
}
