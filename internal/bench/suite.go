package bench

import (
	"fmt"

	"dacpara/internal/aig"
)

// Circuit is one suite entry: a named generator plus the number of times
// the paper's `double` command is applied to it.
type Circuit struct {
	// Name matches the paper's Table 1 naming ("sin_10xd" means the sin
	// design doubled ten times).
	Name string
	// Source is the benchmark-family column of Table 1.
	Source string
	// Build generates the base design at the given scale.
	Build func(scale Scale) *aig.AIG
	// Doublings is how many times the base design is doubled.
	Doublings int
}

// Scale selects suite sizes. The paper runs 5-58 M gate designs on a
// 64-core 256 GB server; the default reproduction scale keeps the same
// relative proportions at tractable sizes.
type Scale int

// Suite scales.
const (
	// ScaleTiny is for unit tests (thousands of gates).
	ScaleTiny Scale = iota
	// ScaleSmall runs in seconds (tens of thousands of gates).
	ScaleSmall
	// ScaleFull is the headline reproduction scale (hundreds of thousands
	// to millions of gates, depending on doublings).
	ScaleFull
)

func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScaleFull:
		return "full"
	}
	return "invalid"
}

// pick returns the parameter for the given scale.
func (s Scale) pick(tiny, small, full int) int {
	switch s {
	case ScaleTiny:
		return tiny
	case ScaleSmall:
		return small
	default:
		return full
	}
}

// doublings scales the paper's 10xd down with the base sizes.
func (s Scale) doublings(full int) int {
	switch s {
	case ScaleTiny:
		return 0
	case ScaleSmall:
		return min(full, 2)
	default:
		return min(full, 4)
	}
}

// Arithmetic returns the Arithmetic + Random/Control rows of Table 1
// (the "_10xd"/"_8xd" set), scaled.
func Arithmetic(s Scale) []Circuit {
	d10 := s.doublings(10)
	d8 := s.doublings(8)
	suffix := func(d int) string {
		if d == 0 {
			return ""
		}
		return fmt.Sprintf("_%dxd", d)
	}
	return []Circuit{
		{Name: "sin" + suffix(d10), Source: "Arithmetic",
			Build: func(s Scale) *aig.AIG { return Sin(s.pick(8, 16, 24)) }, Doublings: d10},
		{Name: "voter" + suffix(d10), Source: "Random/Control",
			Build: func(s Scale) *aig.AIG { return Voter(s.pick(63, 501, 1001)) }, Doublings: d10},
		{Name: "square" + suffix(d10), Source: "Arithmetic",
			Build: func(s Scale) *aig.AIG { return Square(s.pick(12, 32, 64)) }, Doublings: d10},
		{Name: "sqrt" + suffix(d10), Source: "Arithmetic",
			Build: func(s Scale) *aig.AIG { return Sqrt(s.pick(16, 48, 96)) }, Doublings: d10},
		{Name: "mult" + suffix(d10), Source: "Arithmetic",
			Build: func(s Scale) *aig.AIG { return Multiplier(s.pick(12, 40, 64)) }, Doublings: d10},
		{Name: "log2" + suffix(d10), Source: "Arithmetic",
			Build: func(s Scale) *aig.AIG { return Log2(s.pick(10, 20, 32), s.pick(4, 6, 8)) }, Doublings: d10},
		{Name: "mem_ctrl" + suffix(d10), Source: "Random/Control",
			Build: func(s Scale) *aig.AIG { return MemCtrl(s.pick(2000, 12000, 45000), 1) }, Doublings: d10},
		{Name: "hyp" + suffix(d8), Source: "Arithmetic",
			Build: func(s Scale) *aig.AIG { return Hypotenuse(s.pick(10, 32, 72)) }, Doublings: d8},
		{Name: "div" + suffix(d10), Source: "Arithmetic",
			Build: func(s Scale) *aig.AIG { return Divider(s.pick(16, 48, 96)) }, Doublings: d10},
	}
}

// MtMSet returns the three MtM rows of Table 1 ("sixteen", "twenty",
// "twentythree" — named after their gate counts in millions), scaled.
func MtMSet(s Scale) []Circuit {
	mk := func(name string, frac float64, seed int64) Circuit {
		return Circuit{Name: name, Source: "MtM", Build: func(s Scale) *aig.AIG {
			base := s.pick(8_000, 120_000, 1_000_000)
			return MtM(name, int(float64(base)*frac), seed)
		}}
	}
	return []Circuit{
		mk("sixteen", 1.0, 16),
		mk("twenty", 20.0/16.0, 20),
		mk("twentythree", 23.0/16.0, 23),
	}
}

// Suite returns all Table 1 rows.
func Suite(s Scale) []Circuit {
	return append(Arithmetic(s), MtMSet(s)...)
}

// FlowVerified returns the six circuits of the repository benchmark's
// flow_verified workload — the generators, sizes and content seeds of
// benchmark/gen.go (its fixedSeed(0) and fixedSeed(1)) — for the pins and
// micro-benchmarks of the passes that workload judges.
func FlowVerified() []*aig.AIG {
	return []*aig.AIG{
		Sin(6), Voter(31), Sqrt(16), Log2(7, 3),
		MemCtrl(1500, 6219699094450823061), MtM("m", 1500, 2644717556523184189),
	}
}

// KernelSet is what the rewriting kernel's differential tests, allocation
// gates and micro-benchmarks run over: the flow_verified circuits and a
// 4000-AND MtM circuit, the shape of the benchmark's mtm_wide.
func KernelSet() []*aig.AIG {
	return append(FlowVerified(), MtM("mtm", 4000, 1))
}

// Instantiate builds a circuit, applying its doublings.
func (c Circuit) Instantiate(s Scale) *aig.AIG {
	a := c.Build(s)
	a = aig.DoubleN(a, c.Doublings)
	a.Name = c.Name
	return a
}
