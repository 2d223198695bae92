package dacpara

import (
	"errors"
	"testing"

	"dacpara/internal/aig"
)

func TestGenerateKnownNames(t *testing.T) {
	for _, name := range BenchmarkNames(ScaleTiny) {
		net, err := Generate(name, ScaleTiny)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if net.NumAnds() == 0 {
			t.Fatalf("%s: empty", name)
		}
	}
	if _, err := Generate("nonesuch", ScaleTiny); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestGenerateBaseNameAliases(t *testing.T) {
	// "mult" must resolve even when the scaled suite names it
	// "mult_2xd" etc.
	for _, scale := range []Scale{ScaleTiny, ScaleSmall} {
		if _, err := Generate("mult", scale); err != nil {
			t.Fatalf("scale %v: %v", scale, err)
		}
	}
}

func TestRewriteAllEnginesRoundTrip(t *testing.T) {
	for _, engine := range Engines() {
		net, err := Generate("sin", ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		golden := net.Clone()
		res, err := Rewrite(net, engine, Config{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if res.AreaReduction() < 0 && engine != EngineStaticDAC22 && engine != EngineStaticTCAD23 {
			t.Fatalf("%s: area increased by %d", engine, -res.AreaReduction())
		}
		if _, err := Verify(golden, net, 0); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
	}
}

func TestUnknownEngine(t *testing.T) {
	net, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rewrite(net, Engine("bogus"), Config{}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestP1P2Configs(t *testing.T) {
	p1 := P1()
	if p1.MaxCuts != 8 || p1.MaxStructs != 5 || p1.Passes != 2 {
		t.Fatalf("P1 = %+v", p1)
	}
	p2 := P2()
	if p2.MaxCuts != 0 || p2.MaxStructs != 0 || p2.Passes != 1 {
		t.Fatalf("P2 = %+v", p2)
	}
}

func TestDefaultLibraryIsShared(t *testing.T) {
	a, err := DefaultLibrary()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultLibrary()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("library rebuilt instead of cached")
	}
}

func TestVerifyDetectsDifference(t *testing.T) {
	a := aig.New()
	x := a.AddPI()
	y := a.AddPI()
	a.AddPO(a.And(x, y))
	b := aig.New()
	xb := b.AddPI()
	yb := b.AddPI()
	b.AddPO(b.Or(xb, yb))
	v, err := Verify(a, b, 0)
	if !errors.Is(err, ErrNotEquivalent) || v.Equivalent {
		t.Fatalf("different circuits: verdict %+v, error %v", v, err)
	}
}

func TestAIGERInterop(t *testing.T) {
	net, err := Generate("voter", ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/voter.aig"
	if err := net.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadAIGER(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(net, back, 0); err != nil {
		t.Fatalf("AIGER round trip changed the function: %v", err)
	}
}
