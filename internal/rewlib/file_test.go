package rewlib

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"dacpara/internal/npn"
	"dacpara/internal/tt"
)

// sampleClasses synthesizes a handful of genuine semi-canonical classes,
// the same way the generator does.
func sampleClasses(t testing.TB, k, n int) []FileClass {
	t.Helper()
	rng := rand.New(rand.NewSource(97))
	seen := map[tt.Func64]bool{}
	var out []FileClass
	for len(out) < n {
		f := tt.Func64(rng.Uint64())
		for v := k; v < MaxInputs; v++ {
			f = f.Cofactor0(v)
		}
		repr, _ := npn.SemiCanon(f)
		if seen[repr] {
			continue
		}
		seen[repr] = true
		structs, _ := synthesizeAll64(repr, MaxInputs, 8)
		if len(structs) == 0 {
			continue
		}
		out = append(out, FileClass{Repr: repr, Structs: structs})
	}
	return out
}

// TestFileRoundTrip: encode -> decode must reproduce the classes exactly
// (sorted by representative), and re-encoding the decoded file must be
// byte-identical — the canonical-encoding property the determinism CI
// check rests on.
func TestFileRoundTrip(t *testing.T) {
	for _, k := range []int{5, 6} {
		classes := sampleClasses(t, k, 12)
		data, err := EncodeLibrary(k, classes)
		if err != nil {
			t.Fatalf("k=%d: encode: %v", k, err)
		}
		f, err := DecodeLibrary(data)
		if err != nil {
			t.Fatalf("k=%d: decode: %v", k, err)
		}
		if f.K != k || len(f.Classes) != len(classes) {
			t.Fatalf("k=%d: decoded k=%d classes=%d", k, f.K, len(f.Classes))
		}
		if f.Hash != ContentHash(data) {
			t.Fatalf("k=%d: hash mismatch", k)
		}
		for i := 1; i < len(f.Classes); i++ {
			if f.Classes[i-1].Repr >= f.Classes[i].Repr {
				t.Fatalf("k=%d: classes not sorted", k)
			}
		}
		// Every decoded structure still implements its representative.
		var in [MaxInputs]tt.Func64
		for v := range in {
			in[v] = tt.Var64(v)
		}
		for _, c := range f.Classes {
			for si := range c.Structs {
				if got := c.Structs[si].Eval64(in); got != c.Repr {
					t.Fatalf("k=%d: class %v structure %d evaluates to %v", k, c.Repr, si, got)
				}
			}
		}
		again, err := EncodeLibrary(f.K, f.Classes)
		if err != nil {
			t.Fatalf("k=%d: re-encode: %v", k, err)
		}
		if string(again) != string(data) {
			t.Fatalf("k=%d: re-encode not byte-identical", k)
		}
	}
}

// reframe fixes up the trailing CRC after a mutation, making the frame
// valid again so decoding exercises the structural validation behind it.
func reframe(data []byte) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// TestFileTypedErrors drives every framing violation onto its typed
// error.
func TestFileTypedErrors(t *testing.T) {
	classes := sampleClasses(t, 6, 4)
	data, err := EncodeLibrary(6, classes)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, img []byte, want error) {
		t.Helper()
		if _, err := DecodeLibrary(img); !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
	}
	check("empty", nil, ErrTruncated)
	check("magic prefix only", []byte("dacpara-rew"), ErrTruncated)
	check("other file", []byte("#!/bin/sh\necho hello, this is not a library\n"), ErrBadMagic)
	check("future version", []byte("dacpara-rewlib/v9\n more stuff here"), ErrBadVersion)
	check("header only", []byte(FileMagic), ErrTruncated)
	check("missing crc", data[:len(data)-4], ErrBadCRC)
	check("truncated tail", data[:len(data)-9], ErrBadCRC)

	flip := append([]byte(nil), data...)
	flip[len(FileMagic)+12] ^= 0x40
	check("bit flip", flip, ErrBadCRC)

	badK := append([]byte(nil), data...)
	badK[len(FileMagic)] = 9
	check("width out of range", reframe(badK), ErrMalformed)

	badRes := append([]byte(nil), data...)
	badRes[len(FileMagic)+1] = 1
	check("reserved set", reframe(badRes), ErrMalformed)

	lieClasses := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(lieClasses[len(FileMagic)+2:], 1<<30)
	check("class count beyond file", reframe(lieClasses), ErrTruncated)

	// First structure's node count inflated past the payload.
	lieNodes := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(lieNodes[fileHeaderLen+10:], 0xFFFF)
	check("node count beyond file", reframe(lieNodes), ErrTruncated)

	check("trailing garbage", reframe(append(append([]byte(nil), data[:len(data)-4]...), 0, 0, 0, 0, 0, 0)), ErrMalformed)

	// A literal referencing a later AND gate breaks topological order.
	badTopo := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(badTopo[fileHeaderLen+12:], uint16(sAnd(30000)))
	check("topology violation", reframe(badTopo), ErrMalformed)
}

// TestReadLibraryFile checks the mmap-backed loader end to end, including
// the missing-file path.
func TestReadLibraryFile(t *testing.T) {
	classes := sampleClasses(t, 5, 6)
	data, err := EncodeLibrary(5, classes)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lib.rewlib")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := ReadLibraryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.K != 5 || len(f.Classes) != len(classes) || f.Hash != ContentHash(data) {
		t.Fatalf("loaded file diverges: k=%d classes=%d", f.K, len(f.Classes))
	}
	if _, err := ReadLibraryFile(filepath.Join(t.TempDir(), "absent.rewlib")); err == nil {
		t.Fatal("missing file did not error")
	}
}

// TestFilePreloadVerifies: a frame-valid file whose structure implements
// the wrong function must be rejected by Preload — the functional firewall
// between disk and rewriting.
func TestFilePreloadVerifies(t *testing.T) {
	classes := sampleClasses(t, 6, 5)
	// Corrupt one class by pointing it at a different representative: the
	// framing stays valid, the function check must catch it.
	bad := make([]FileClass, len(classes))
	copy(bad, classes)
	bad[2] = FileClass{Repr: bad[2].Repr ^ 1<<13, Structs: bad[2].Structs}
	data, err := EncodeLibrary(6, bad)
	if err != nil {
		t.Fatal(err)
	}
	f, err := DecodeLibrary(data)
	if err != nil {
		t.Fatalf("frame-valid file rejected: %v", err)
	}
	b := NewBigLibrary(8)
	loaded, rejected := f.Preload(b)
	if loaded != len(classes)-1 || rejected != 1 {
		t.Fatalf("Preload loaded=%d rejected=%d, want %d/1", loaded, rejected, len(classes)-1)
	}
}

// FuzzReadRewlib is the satellite fuzz target: the loader must never
// panic on arbitrary input, must reject every corruption with a typed
// error, and on success must expose only topologically valid structures
// whose canonical re-encoding reproduces the input byte for byte.
func FuzzReadRewlib(f *testing.F) {
	classes := sampleClasses(f, 6, 5)
	valid, err := EncodeLibrary(6, classes)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(FileMagic))
	f.Add([]byte("dacpara-rewlib/v2\n"))
	f.Add(valid[:len(valid)-5])
	f.Add(reframe(append(append([]byte(nil), valid...), 1, 2, 3)))
	short, err := EncodeLibrary(5, classes[:1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(short)
	f.Fuzz(func(t *testing.T, data []byte) {
		lib, err := DecodeLibrary(data)
		if err != nil {
			if lib != nil {
				t.Fatal("error with non-nil file")
			}
			for _, typed := range []error{ErrBadMagic, ErrBadVersion, ErrBadCRC, ErrTruncated, ErrMalformed} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped decode error: %v", err)
		}
		if lib.K < 4 || lib.K > MaxInputs {
			t.Fatalf("accepted width %d", lib.K)
		}
		for i, c := range lib.Classes {
			if i > 0 && lib.Classes[i-1].Repr >= c.Repr {
				t.Fatal("accepted unsorted classes")
			}
			for si := range c.Structs {
				if err := validStructure(&c.Structs[si]); err != nil {
					t.Fatalf("accepted invalid structure: %v", err)
				}
			}
		}
		again, err := EncodeLibrary(lib.K, lib.Classes)
		if err != nil {
			t.Fatalf("decoded file does not re-encode: %v", err)
		}
		if string(again) != string(data) {
			t.Fatal("accepted non-canonical encoding")
		}
	})
}
