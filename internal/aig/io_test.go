package aig

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestAIGERRoundTripASCII(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 10; iter++ {
		a := randomNetwork(t, rng, 5, 80, 6)
		a.Name = "roundtrip"
		var buf bytes.Buffer
		if err := a.WriteASCII(&buf); err != nil {
			t.Fatal(err)
		}
		b, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkSameFunction(t, a, b)
		if b.Name != "roundtrip" {
			t.Fatalf("name lost: %q", b.Name)
		}
	}
}

func TestAIGERRoundTripBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for iter := 0; iter < 10; iter++ {
		a := randomNetwork(t, rng, 6, 120, 5)
		var buf bytes.Buffer
		if err := a.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		b, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		checkSameFunction(t, a, b)
	}
}

func checkSameFunction(t *testing.T, a, b *AIG) {
	t.Helper()
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		t.Fatalf("interface mismatch: %v vs %v", a.Stats(), b.Stats())
	}
	if err := b.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	sa := RandomSignature(a, rand.New(rand.NewSource(3)), 4)
	sb := RandomSignature(b, rand.New(rand.NewSource(3)), 4)
	if !slices.Equal(sa, sb) {
		t.Fatal("function changed through AIGER round trip")
	}
}

func TestAIGERFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	a := randomNetwork(t, rng, 4, 50, 3)
	dir := t.TempDir()
	for _, name := range []string{"x.aig", "x.aag"} {
		path := filepath.Join(dir, name)
		if err := a.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		b, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		checkSameFunction(t, a, b)
	}
}

func TestAIGERConstantOutputs(t *testing.T) {
	a := New()
	a.AddPI()
	a.AddPO(LitFalse)
	a.AddPO(LitTrue)
	var buf bytes.Buffer
	if err := a.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.PO(0) != LitFalse || b.PO(1) != LitTrue {
		t.Fatalf("constant POs lost: %v %v", b.PO(0), b.PO(1))
	}
}

func TestAIGERRejectsLatches(t *testing.T) {
	_, err := Read(strings.NewReader("aag 1 0 1 0 0\n2 2\n"))
	if err == nil || !strings.Contains(err.Error(), "latches") {
		t.Fatalf("latched input accepted: %v", err)
	}
}

func TestAIGERRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"hello world\n",
		"aag 1\n",
		"xyz 1 1 0 1 0\n2\n2\n",
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted garbage %q", in)
		}
	}
}

func TestAIGERRejectsUseBeforeDef(t *testing.T) {
	// AND reads variable 3 (literal 6) which is never defined.
	in := "aag 3 1 0 1 1\n2\n4\n4 6 2\n"
	if _, err := Read(strings.NewReader(in)); err == nil {
		t.Fatal("use-before-definition accepted")
	}
}

func TestAIGERParsesKnownASCII(t *testing.T) {
	// A half adder: carry = x&y (literal 6), sum = x^y (literal 13,
	// complement of AND(!(x&!y)... ) in AIG form).
	in := "aag 6 2 0 2 4\n2\n4\n6\n13\n6 2 4\n8 2 5\n10 3 4\n12 9 11\n"
	a, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumPIs() != 2 || a.NumPOs() != 2 {
		t.Fatalf("stats %v", a.Stats())
	}
	if err := a.Check(CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(a)
	out := sim.Run([]uint64{0b0011, 0b0101})
	if out[0]&0xF != 0b0001 { // carry
		t.Fatalf("carry = %b", out[0]&0xF)
	}
	if out[1]&0xF != 0b0110 { // sum
		t.Fatalf("sum = %b", out[1]&0xF)
	}
}

func TestSimulatorConstNetwork(t *testing.T) {
	a := New()
	x := a.AddPI()
	a.AddPO(a.And(x, x.Not())) // const0 via simplification
	sim := NewSimulator(a)
	out := sim.Run([]uint64{^uint64(0)})
	if out[0] != 0 {
		t.Fatalf("constant false PO simulated as %x", out[0])
	}
}

func TestRandomSignatureDetectsDifference(t *testing.T) {
	a := New()
	x := a.AddPI()
	y := a.AddPI()
	a.AddPO(a.And(x, y))
	b := New()
	xb := b.AddPI()
	yb := b.AddPI()
	b.AddPO(b.Or(xb, yb))
	sa := RandomSignature(a, rand.New(rand.NewSource(1)), 2)
	sb := RandomSignature(b, rand.New(rand.NewSource(1)), 2)
	if slices.Equal(sa, sb) {
		t.Fatal("AND and OR produced equal signatures")
	}
}
