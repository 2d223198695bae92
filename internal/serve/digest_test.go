package serve

import (
	"bytes"
	"testing"

	"dacpara"
	"dacpara/internal/aig"
)

func mustGenerate(t *testing.T, name string) *dacpara.Network {
	t.Helper()
	net, err := dacpara.Generate(name, dacpara.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestStructuralDigest(t *testing.T) {
	voter := mustGenerate(t, "voter")
	d1 := aig.StructuralDigest(voter)
	if len(d1) != 64 {
		t.Fatalf("digest %q is not hex sha256", d1)
	}

	// The same circuit generated again digests identically.
	if d2 := aig.StructuralDigest(mustGenerate(t, "voter")); d2 != d1 {
		t.Fatalf("same circuit, different digests: %s vs %s", d1, d2)
	}

	// A round-trip through each AIGER encoding preserves the digest:
	// node IDs may be reassigned, structure is not.
	var bin, ascii bytes.Buffer
	if err := voter.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	if err := voter.WriteASCII(&ascii); err != nil {
		t.Fatal(err)
	}
	for _, enc := range []*bytes.Buffer{&bin, &ascii} {
		back, err := aig.Read(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if d := aig.StructuralDigest(back); d != d1 {
			t.Fatalf("AIGER round trip changed the digest: %s vs %s", d, d1)
		}
	}

	// A different circuit digests differently.
	if d := aig.StructuralDigest(mustGenerate(t, "mult")); d == d1 {
		t.Fatal("distinct circuits share a digest")
	}

	// A one-inverter change digests differently.
	tweaked := voter.Clone()
	tweaked.ReplacePO(0, tweaked.PO(0).Not())
	if d := aig.StructuralDigest(tweaked); d == d1 {
		t.Fatal("PO inversion did not change the digest")
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2, 0)
	mk := func(n int) *CachedResult { return &CachedResult{AIGER: make([]byte, n)} }
	c.put("a", mk(10))
	c.put("b", mk(10))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.put("c", mk(10)) // evicts b (least recently used after a's get)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived")
	}
	entries, bytes_, hits, misses := c.stats()
	if entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
	if bytes_ <= 0 {
		t.Fatalf("bytes = %d", bytes_)
	}
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
}

func TestResultCacheByteBound(t *testing.T) {
	c := newResultCache(0, 3000)
	mk := func(n int) *CachedResult { return &CachedResult{AIGER: make([]byte, n)} }
	c.put("a", mk(100)) // ~1124 bytes with overhead estimate
	c.put("b", mk(100))
	c.put("c", mk(100)) // exceeds 3000: evicts a
	if _, ok := c.get("a"); ok {
		t.Fatal("a should have been evicted by the byte bound")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c missing")
	}
	// A single oversized entry is still admitted (bound keeps >= 1).
	c.put("big", mk(10_000))
	if _, ok := c.get("big"); !ok {
		t.Fatal("oversized entry should still be cached alone")
	}
}
