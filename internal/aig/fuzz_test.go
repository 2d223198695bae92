package aig_test

import (
	"bytes"
	"testing"

	"dacpara/internal/aig"
)

// FuzzReadAIGER throws arbitrary bytes at the AIGER reader. Whatever
// parses must be a structurally valid network that survives a write/read
// round trip; everything else must fail with an error, never a panic,
// an OOM-sized allocation, or a corrupt graph.
func FuzzReadAIGER(f *testing.F) {
	// Well-formed seeds, ASCII and binary.
	f.Add([]byte("aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n"))
	f.Add([]byte("aag 5 2 0 2 3\n2\n4\n10\n7\n6 2 4\n8 3 5\n10 6 9\n"))
	f.Add([]byte("aig 3 2 0 1 1\n6\n\x02\x02"))
	var buf bytes.Buffer
	a := aig.New()
	x, y := a.AddPI(), a.AddPI()
	a.AddPO(a.Xor(x, y))
	if err := a.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Malformed seeds: oversized counts, truncated binary deltas,
	// constant/input redefinition, out-of-range and odd literals,
	// unterminated LEB128 runs, inconsistent binary headers.
	f.Add([]byte("aag 99999999999999999999 1 0 0 0\n"))
	f.Add([]byte("aag 4294967296 4294967296 0 0 0\n"))
	f.Add([]byte("aig 3 1 0 1 2\n2\n\x80"))
	f.Add([]byte("aig 2 1 0 0 1\n\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01"))
	f.Add([]byte("aag 1 1 0 0 0\n0\n"))
	f.Add([]byte("aag 1 1 0 0 0\n3\n"))
	f.Add([]byte("aag 2 2 0 0 0\n2\n2\n"))
	f.Add([]byte("aag 2 1 0 1 1\n2\n4\n4 9 2\n"))
	f.Add([]byte("aig 9 1 0 1 2\n6\n\x02\x02"))
	f.Add([]byte("aag 2 0 0 0 1\n2 2 2\n"))
	f.Add([]byte("aig 0 0 1 0 0\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := aig.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := net.Check(aig.CheckOptions{AllowDuplicates: true}); err != nil {
			t.Fatalf("parsed network violates invariants: %v", err)
		}
		// Round trip: what we accept we must be able to write and re-read.
		var out bytes.Buffer
		if err := net.WriteASCII(&out); err != nil {
			t.Fatalf("writing parsed network: %v", err)
		}
		again, err := aig.Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-reading written network: %v", err)
		}
		if again.NumPIs() != net.NumPIs() || again.NumPOs() != net.NumPOs() {
			t.Fatalf("round trip changed interface: %d/%d PIs, %d/%d POs",
				net.NumPIs(), again.NumPIs(), net.NumPOs(), again.NumPOs())
		}
	})
}
