package rewlib

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math/rand"
	"os"
	"testing"

	"dacpara/internal/npn"
	"dacpara/internal/tt"
)

const goldenRewlibPath = "testdata/golden_rewlib.json"

// updateRewlib rewrites the golden file from the code under test.
// Regenerating it is a statement that library content — and with it the
// output of every rewriting engine — was meant to change.
var updateRewlib = flag.Bool("update-rewlib", false, "rewrite "+goldenRewlibPath)

// pinSection is one row of testdata/golden_rewlib.json: a SHA-256 over
// one part of what library construction produces, and how many items
// (structures, classes, functions) went into it.
type pinSection struct {
	Name   string `json:"name"`
	Items  int    `json:"items"`
	SHA256 string `json:"sha256"`
}

type pinHash struct{ h hash.Hash }

func (p pinHash) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	p.h.Write(b[:])
}

// structureKey serializes a structure: every gate's fanins, then the
// output, two big-endian bytes a literal.
func structureKey(s *Structure) string {
	b := make([]byte, 0, 4*len(s.Nodes)+2)
	for _, n := range s.Nodes {
		b = append(b, byte(n.In0>>8), byte(n.In0), byte(n.In1>>8), byte(n.In1))
	}
	b = append(b, byte(s.Out>>8), byte(s.Out))
	return string(b)
}

// forest hashes a class forest: its size, then every structure's key in
// forest order, length-prefixed.
func (p pinHash) forest(structs []Structure) {
	p.u64(uint64(len(structs)))
	for i := range structs {
		k := structureKey(&structs[i])
		p.u64(uint64(len(k)))
		p.h.Write([]byte(k))
	}
}

func (p pinHash) sum() string { return hex.EncodeToString(p.h.Sum(nil)) }

func newPinHash() pinHash { return pinHash{sha256.New()} }

// pinLibrary hashes a 4-input library: per class, in index order, the
// representative and the forest.
func pinLibrary(name string, lib *Library) pinSection {
	h := newPinHash()
	structs := 0
	for _, cls := range lib.NPN().Classes() {
		h.u64(uint64(cls.Repr))
		h.forest(lib.Structures(cls.Index))
		structs += len(lib.Structures(cls.Index))
	}
	return pinSection{Name: name, Items: structs, SHA256: h.sum()}
}

// pinPractical hashes the 134-class mask.
func pinPractical(lib *Library) pinSection {
	h := newPinHash()
	mask := lib.PracticalClasses(134)
	for _, in := range mask {
		b := byte(0)
		if in {
			b = 1
		}
		h.h.Write([]byte{b})
	}
	return pinSection{Name: "library/practical-134", Items: len(mask), SHA256: h.sum()}
}

// pinBigSample is the fixed sample of 5- and 6-input functions whose
// large-cut forests are pinned: 256 seeded random tables, every other one
// cut down to five variables, then the symmetric and control shapes that
// branch hardest in classification and synthesis.
func pinBigSample() []tt.Func64 {
	rng := rand.New(rand.NewSource(20241017))
	var fs []tt.Func64
	for i := 0; i < 256; i++ {
		f := tt.Func64(rng.Uint64())
		if i%2 == 1 {
			f = f.Cofactor0(5)
		}
		fs = append(fs, f)
	}
	var parity5, parity6, maj5, mux6 tt.Func64
	for row := uint(0); row < 64; row++ {
		ones5 := 0
		for v := uint(0); v < 5; v++ {
			ones5 += int(row >> v & 1)
		}
		if ones5%2 == 1 {
			parity5 |= 1 << row
		}
		if (ones5+int(row>>5&1))%2 == 1 {
			parity6 |= 1 << row
		}
		if ones5 >= 3 {
			maj5 |= 1 << row
		}
		// x5,x4 select one of x0..x3.
		if row>>(row>>4&3)&1 == 1 {
			mux6 |= 1 << row
		}
	}
	return append(fs, parity5, parity6, maj5, mux6)
}

// TestLibraryContentPinned holds everything library construction feeds
// the rewriting engines to a recorded digest: the default 4-input
// library, the same capped at five structures a class, the practical
// class subset, the exact NPN table with its transforms, and the
// classification and large-cut forests of a fixed sample of 5- and
// 6-input functions. The end-to-end goldens only see AND counts and
// graph digests; this names the layer that moved. Both libraries are
// built here, on a team as wide as -cpu makes GOMAXPROCS, so that
// `-cpu 1,2,4` pins each width.
func TestLibraryContentPinned(t *testing.T) {
	m := npn.Shared()
	lib, err := Build(m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Build(m, Params{MaxPerClass: 5})
	if err != nil {
		t.Fatal(err)
	}
	got := []pinSection{
		pinLibrary("library/default", lib),
		pinLibrary("library/max-per-class-5", capped),
		pinPractical(lib),
	}

	h := newPinHash()
	for f := 0; f < 1<<16; f++ {
		f16 := tt.Func16(f)
		tr := m.ToCanon(f16)
		neg := byte(0)
		if tr.Neg {
			neg = 1
		}
		h.u64(uint64(m.Canon(f16)))
		h.u64(uint64(m.ClassIndex(f16)))
		h.h.Write(tr.Perm[:4])
		h.h.Write([]byte{tr.Flip, neg})
	}
	got = append(got, pinSection{Name: "npn/exact-table", Items: 1 << 16, SHA256: h.sum()})

	h = newPinHash()
	sample := pinBigSample()
	for _, f := range sample {
		repr, tr := npn.SemiCanon(f)
		neg := byte(0)
		if tr.Neg {
			neg = 1
		}
		h.u64(uint64(f))
		h.u64(uint64(repr))
		h.h.Write(tr.Perm[:])
		h.h.Write([]byte{tr.Flip, neg})
		h.forest(lib.ForRepr(repr))
	}
	got = append(got, pinSection{Name: "big/sample-forests", Items: len(sample), SHA256: h.sum()})

	if *updateRewlib {
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenRewlibPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d sections to %s", len(got), goldenRewlibPath)
		return
	}
	data, err := os.ReadFile(goldenRewlibPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []pinSection
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d golden sections, want %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("section %s: %d items, sha256 %s; golden %s: %d items, sha256 %s",
				got[i].Name, got[i].Items, got[i].SHA256, want[i].Name, want[i].Items, want[i].SHA256)
		}
	}
}
