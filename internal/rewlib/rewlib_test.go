package rewlib

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"dacpara/internal/npn"
	"dacpara/internal/tt"
)

var sharedLib = sync.OnceValue(func() *Library {
	lib, err := Build(npn.Shared(), Params{})
	if err != nil {
		panic(err)
	}
	return lib
})

func TestEveryClassHasStructures(t *testing.T) {
	lib := sharedLib()
	m := npn.Shared()
	for i := 0; i < m.NumClasses(); i++ {
		structs := lib.Structures(i)
		if len(structs) == 0 {
			t.Fatalf("class %d (%v) has no structures", i, m.Classes()[i].Repr)
		}
		// Forests are sorted by node count.
		for k := 1; k < len(structs); k++ {
			if structs[k].NumNodes() < structs[k-1].NumNodes() {
				t.Fatalf("class %d forest not sorted by size", i)
			}
		}
	}
}

func TestStructuresComputeTheirClass(t *testing.T) {
	lib := sharedLib()
	m := npn.Shared()
	for _, cls := range m.Classes() {
		for si, s := range lib.Structures(cls.Index) {
			if got := s.Func64(); got != cls.Repr.Wide() {
				t.Fatalf("class %v structure %d computes %v", cls.Repr, si, got)
			}
		}
	}
}

func TestStructuresAreDeduplicated(t *testing.T) {
	lib := sharedLib()
	for i := 0; i < npn.Shared().NumClasses(); i++ {
		seen := map[string]bool{}
		for _, s := range lib.Structures(i) {
			k := structureKey(&s)
			if seen[k] {
				t.Fatalf("class %d has duplicate structure", i)
			}
			seen[k] = true
		}
	}
}

func TestStructuresAreTopological(t *testing.T) {
	lib := sharedLib()
	for i := 0; i < npn.Shared().NumClasses(); i++ {
		for _, s := range lib.Structures(i) {
			for k, g := range s.Nodes {
				for _, in := range [2]SLit{g.In0, g.In1} {
					if ai := in.AndIndex(); ai >= k {
						t.Fatalf("class %d: gate %d reads gate %d", i, k, ai)
					}
				}
			}
		}
	}
}

// TestForFuncInstantiation is the key soundness property of the Structure
// Manager: evaluating a class structure with its inputs driven through the
// inverse NPN transform must reproduce the original (non-canonical)
// function.
func TestForFuncInstantiation(t *testing.T) {
	lib := sharedLib()
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 3000; i++ {
		f := tt.Func16(rng.Uint32())
		_, structs, inv := lib.ForFunc(f)
		s := &structs[rng.Intn(len(structs))]
		// Drive structure input i with variable inv.Perm[i], complemented
		// per inv.Flip; complement the output per inv.Neg.
		var in [MaxInputs]tt.Func64
		for v := range in {
			in[v] = tt.Var64(int(inv.Perm[v]))
			if inv.Flip>>uint(v)&1 == 1 {
				in[v] = in[v].Not()
			}
		}
		got := s.Eval64(in)
		if inv.Neg {
			got = got.Not()
		}
		if got != f.Wide() {
			t.Fatalf("instantiated structure computes %v, want %v (inv=%+v)", got, f, inv)
		}
	}
}

func TestMaxPerClassLimit(t *testing.T) {
	lib, err := Build(npn.Shared(), Params{MaxPerClass: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < npn.Shared().NumClasses(); i++ {
		if n := len(lib.Structures(i)); n > 3 {
			t.Fatalf("class %d has %d structures, limit 3", i, n)
		}
	}
	if lib.MaxStructures() > 3 {
		t.Fatal("MaxStructures exceeds the limit")
	}
}

func TestPracticalClasses(t *testing.T) {
	lib := sharedLib()
	mask := lib.PracticalClasses(134)
	count := 0
	for _, b := range mask {
		if b {
			count++
		}
	}
	if count != 134 {
		t.Fatalf("selected %d classes, want 134", count)
	}
	m := npn.Shared()
	// The practical subset must include the functions arithmetic circuits
	// are made of: 2- and 3-input parities and the 3-input majority.
	x0, x1, x2 := tt.Var64(0), tt.Var64(1), tt.Var64(2)
	for _, f := range []tt.Func64{
		x0.Xor(x1),
		x0.Xor(x1).Xor(x2),
		x0.And(x1).Or(x0.And(x2)).Or(x1.And(x2)),
		x0.And(x1),
		x0,
	} {
		if !mask[m.ClassIndex(f.Narrow16())] {
			t.Fatalf("practical subset misses %v", f)
		}
	}
	// Selecting everything yields the full space.
	all := lib.PracticalClasses(m.NumClasses())
	for i, b := range all {
		if !b {
			t.Fatalf("class %d missing from full selection", i)
		}
	}
	for _, n := range []int{0, 1, 134, 222, 300} {
		if got, want := lib.PracticalClasses(n), practicalReference(lib, n); !slices.Equal(got, want) {
			t.Fatalf("PracticalClasses(%d) differs from the reference ranking", n)
		}
	}
}

// practicalReference is the ranking PracticalClasses made on every call
// before Build ranked the classes once: sort every class by minimal
// structure cost, then orbit size descending, then index, and take the
// first n.
func practicalReference(l *Library, n int) []bool {
	type entry struct {
		cls  int
		cost int
		size int
	}
	entries := make([]entry, len(l.structs))
	for i, forest := range l.structs {
		cost := 1 << 20
		if len(forest) > 0 {
			cost = forest[0].NumNodes()
		}
		entries[i] = entry{cls: i, cost: cost, size: l.npn.Classes()[i].Size}
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].cost != entries[b].cost {
			return entries[a].cost < entries[b].cost
		}
		if entries[a].size != entries[b].size {
			return entries[a].size > entries[b].size
		}
		return entries[a].cls < entries[b].cls
	})
	mask := make([]bool, len(l.structs))
	for i := 0; i < n && i < len(entries); i++ {
		mask[entries[i].cls] = true
	}
	return mask
}

func TestSLitHelpers(t *testing.T) {
	if v, ok := SInput(2).IsInput(); !ok || v != 2 {
		t.Fatal("SInput/IsInput round trip broken")
	}
	if val, ok := SConstTrue.IsConst(); !ok || !val {
		t.Fatal("SConstTrue not recognized")
	}
	if val, ok := SConstFalse.IsConst(); !ok || val {
		t.Fatal("SConstFalse not recognized")
	}
	if SInput(0).AndIndex() != -1 {
		t.Fatal("input literal must not have an AND index")
	}
	l := SLit(2 * 7) // first gate (inputs occupy indices 1..6)
	if l.AndIndex() != 0 {
		t.Fatalf("first gate index %d", l.AndIndex())
	}
	if l.Compl(true) == l || l.Compl(false) != l {
		t.Fatal("Compl behaves wrongly")
	}
}

func TestStructureSizesAreReasonable(t *testing.T) {
	lib := sharedLib()
	m := npn.Shared()
	worst := 0
	for i := 0; i < m.NumClasses(); i++ {
		n := lib.Structures(i)[0].NumNodes()
		if n > worst {
			worst = n
		}
	}
	// Every 4-input function is implementable well under the builder's
	// gate guard; the worst minimal structure should stay moderate.
	if worst > 20 {
		t.Fatalf("worst minimal structure has %d gates", worst)
	}
	t.Logf("worst minimal structure: %d gates", worst)
}

// TestBuildConcurrent races two Builds, each on its own team: whichever
// worker synthesizes which class, both libraries must pin the same.
func TestBuildConcurrent(t *testing.T) {
	var libs [2]*Library
	var errs [2]error
	var wg sync.WaitGroup
	for i := range libs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			libs[i], errs[i] = Build(npn.Shared(), Params{})
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, pin := range []func(*Library) pinSection{
		func(l *Library) pinSection { return pinLibrary("library/default", l) },
		pinPractical,
	} {
		if a, b := pin(libs[0]), pin(libs[1]); a != b {
			t.Fatalf("concurrent builds differ: %+v vs %+v", a, b)
		}
	}
}

// TestBuildAllocs holds the library build to a few allocations a class:
// the forest it keeps, not the synthesis that found it.
func TestBuildAllocs(t *testing.T) {
	m := npn.Shared()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(m, Params{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations per Build", allocs)
	if allocs > 10000 {
		t.Fatalf("Build allocates %.0f times, want at most 10000", allocs)
	}
}

// TestTableGrows fills a table far past its initial size: every key must
// still read back, under its stamp only.
func TestTableGrows(t *testing.T) {
	var tb table[uint64]
	tb.init(4)
	const stamp = 7
	for k := uint64(0); k < 100; k++ {
		tb.put(tb.find(k*k, stamp), k*k, stamp, SLit(k))
	}
	for k := uint64(0); k < 100; k++ {
		if s := tb.find(k*k, stamp); s.stamp != stamp || s.lit != SLit(k) {
			t.Fatalf("key %d: slot %+v", k*k, *s)
		}
		if s := tb.find(k*k, stamp+1); s.stamp == stamp+1 {
			t.Fatalf("key %d found under a later stamp", k*k)
		}
	}
	if tb.n != 100 || len(tb.slots) < 200 {
		t.Fatalf("%d entries in %d slots", tb.n, len(tb.slots))
	}
}

// BenchmarkLibraryBuild times what every process pays before its first
// rewrite (and the repository benchmark in every workload's set-up).
func BenchmarkLibraryBuild(b *testing.B) {
	m := npn.Shared()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(m, Params{}); err != nil {
			b.Fatal(err)
		}
	}
}
