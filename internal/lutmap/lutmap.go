// Package lutmap implements k-input LUT technology mapping with priority
// cuts — the canonical consumer of the optimized AIGs this repository
// produces. Mapping assigns each output cone to a cover of k-feasible
// cuts; the quality of rewriting shows up directly as mapped LUT count
// and depth, which the experiment harness reports alongside the paper's
// AIG-level metrics.
//
// The algorithm is the standard two-phase priority-cuts flow: a
// depth-oriented pass chooses, per node, the cut minimizing mapped depth
// (area flow breaking ties), then an area-recovery pass re-selects cuts
// by exact local area where depth allows. The cover is extracted from the
// primary outputs.
package lutmap

import (
	"fmt"
	"math"
	"sort"

	"dacpara/internal/aig"
	"dacpara/internal/cone"
)

// The priority-cut set holds at most cutsPerNode cuts per node, and the
// mapper runs areaIterations area-recovery passes.
const (
	cutsPerNode    = 8
	areaIterations = 2
)

// MaxK is the widest LUT the mapper covers with.
const MaxK = 16

// LUT is one mapped lookup table: a root node covering the cone between
// its leaves and itself.
type LUT struct {
	Root   int32
	Leaves []int32
}

// Mapping is the result of covering the network with LUTs.
type Mapping struct {
	LUTs  []LUT
	Depth int
	// Area is len(LUTs), the mapped LUT count.
	Area int
}

// cut is a k-feasible cut with mapping costs.
type cut struct {
	leaves []int32
	sig    uint64
	depth  int32
	flow   float64
}

type nodeData struct {
	cuts  []cut
	best  int // index of the representative cut
	depth int32
	flow  float64
	// mapRefs counts how many selected LUTs read this node, for exact
	// area during recovery.
	mapRefs int32
}

// Map covers the network with k-input LUTs, 2 <= k <= MaxK.
func Map(a *aig.AIG, k int) (Mapping, error) {
	if k < 2 || k > MaxK {
		return Mapping{}, fmt.Errorf("lutmap: LUT width %d out of range 2..%d", k, MaxK)
	}
	data := make([]nodeData, a.Capacity())
	order := a.TopoOrder(nil)

	// Initialize sources.
	for _, id := range order {
		n := a.N(id)
		if n.Kind() == aig.KindPI || n.Kind() == aig.KindConst {
			data[id] = nodeData{
				cuts:  []cut{unitCut(id)},
				best:  0,
				depth: 0,
				flow:  0,
			}
		}
	}

	computeCuts := func(id int32, areaMode bool) {
		n := a.N(id)
		d0 := &data[n.Fanin0().Node()]
		d1 := &data[n.Fanin1().Node()]
		var cand []cut
		for i := range d0.cuts {
			for j := range d1.cuts {
				c, ok := mergeCuts(&d0.cuts[i], &d1.cuts[j], k)
				if !ok {
					continue
				}
				c.depth, c.flow = cutCost(a, data, c.leaves, id)
				cand = append(cand, c)
			}
		}
		sortCuts(cand, areaMode)
		cand = dedupeCuts(cand)
		if len(cand) > cutsPerNode {
			cand = cand[:cutsPerNode]
		}
		nd := &data[id]
		nd.best = 0
		nd.depth = cand[0].depth
		nd.flow = cand[0].flow
		// The unit self-cut joins the set LAST, priced at the node's own
		// mapping cost, so fanouts may stop a cut at this node; it is
		// never the representative cover cut itself.
		unit := unitCut(id)
		unit.depth = nd.depth
		unit.flow = nd.flow
		nd.cuts = append(cand, unit)
	}

	// Phase 1: depth-oriented mapping.
	for _, id := range order {
		if a.N(id).IsAnd() {
			computeCuts(id, false)
		}
	}
	m := extractCover(a, data)

	// Phase 2: area recovery under the achieved depth.
	for iter := 0; iter < areaIterations; iter++ {
		markMapRefs(a, data, m)
		for _, id := range order {
			if a.N(id).IsAnd() {
				computeCuts(id, true)
			}
		}
		m2 := extractCover(a, data)
		if m2.Area <= m.Area && m2.Depth <= m.Depth {
			m = m2
		}
	}
	if err := validate(a, m, k); err != nil {
		return Mapping{}, err
	}
	return m, nil
}

func unitCut(id int32) cut {
	return cut{leaves: []int32{id}, sig: 1 << (uint(id) & 63)}
}

// cutCost computes the mapped depth and area flow of choosing this cut.
func cutCost(a *aig.AIG, data []nodeData, leaves []int32, root int32) (int32, float64) {
	var depth int32
	flow := 1.0
	for _, l := range leaves {
		d := &data[l]
		if d.depth > depth {
			depth = d.depth
		}
		refs := float64(a.N(l).Ref())
		if refs < 1 {
			refs = 1
		}
		flow += d.flow / refs
	}
	// A unit cut of root has root as its own leaf: its "depth" is the
	// fanin-side depth, handled by the caller ordering (units only appear
	// as leaves of other cuts, never as the chosen cover cut of an AND).
	return depth + 1, flow
}

// mergeCuts unions two cuts when within k leaves.
func mergeCuts(c0, c1 *cut, k int) (cut, bool) {
	out := cut{leaves: make([]int32, 0, k)}
	i, j := 0, 0
	for i < len(c0.leaves) && j < len(c1.leaves) {
		var next int32
		switch {
		case c0.leaves[i] == c1.leaves[j]:
			next = c0.leaves[i]
			i, j = i+1, j+1
		case c0.leaves[i] < c1.leaves[j]:
			next = c0.leaves[i]
			i++
		default:
			next = c1.leaves[j]
			j++
		}
		if len(out.leaves) == k {
			return cut{}, false
		}
		out.leaves = append(out.leaves, next)
	}
	for ; i < len(c0.leaves); i++ {
		if len(out.leaves) == k {
			return cut{}, false
		}
		out.leaves = append(out.leaves, c0.leaves[i])
	}
	for ; j < len(c1.leaves); j++ {
		if len(out.leaves) == k {
			return cut{}, false
		}
		out.leaves = append(out.leaves, c1.leaves[j])
	}
	out.sig = c0.sig | c1.sig
	return out, true
}

func sortCuts(cs []cut, areaMode bool) {
	sort.SliceStable(cs, func(i, j int) bool {
		a, b := &cs[i], &cs[j]
		if areaMode {
			if a.flow != b.flow {
				return a.flow < b.flow
			}
			if a.depth != b.depth {
				return a.depth < b.depth
			}
		} else {
			if a.depth != b.depth {
				return a.depth < b.depth
			}
			if a.flow != b.flow {
				return a.flow < b.flow
			}
		}
		return len(a.leaves) < len(b.leaves)
	})
}

func dedupeCuts(cs []cut) []cut {
	seen := map[string]bool{}
	out := cs[:0]
	for _, c := range cs {
		key := fmt.Sprint(c.leaves)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, c)
	}
	return out
}

// extractCover walks from the POs, materializing the best cut of every
// needed node as a LUT.
func extractCover(a *aig.AIG, data []nodeData) Mapping {
	var m Mapping
	visited := map[int32]bool{}
	var need func(id int32) int32
	need = func(id int32) int32 {
		n := a.N(id)
		if !n.IsAnd() {
			return 0
		}
		if visited[id] {
			return data[id].depth
		}
		visited[id] = true
		nd := &data[id]
		best := nd.cuts[nd.best]
		if len(best.leaves) == 1 && best.leaves[0] == id {
			// A unit self-cut cannot cover an AND node; fall back to the
			// next cut (always exists: the fanin merge).
			for i := range nd.cuts {
				c := &nd.cuts[i]
				if !(len(c.leaves) == 1 && c.leaves[0] == id) {
					best = *c
					break
				}
			}
		}
		var depth int32
		for _, l := range best.leaves {
			if d := need(l); d > depth {
				depth = d
			}
		}
		depth++
		m.LUTs = append(m.LUTs, LUT{Root: id, Leaves: best.leaves})
		if int(depth) > m.Depth {
			m.Depth = int(depth)
		}
		nd.depth = depth
		return depth
	}
	for _, po := range a.POs() {
		need(po.Node())
	}
	m.Area = len(m.LUTs)
	return m
}

// markMapRefs records, per node, how many selected LUTs reference it —
// the reference counts exact-area recovery uses.
func markMapRefs(a *aig.AIG, data []nodeData, m Mapping) {
	for i := range data {
		data[i].mapRefs = 0
	}
	for _, l := range m.LUTs {
		for _, leaf := range l.Leaves {
			data[leaf].mapRefs++
		}
	}
}

// validate checks the structural soundness of a mapping: every LUT obeys
// the input bound, every leaf is a PI, the constant, or another LUT root,
// and every PO cone is covered.
func validate(a *aig.AIG, m Mapping, k int) error {
	roots := map[int32]bool{}
	for _, l := range m.LUTs {
		if len(l.Leaves) > k {
			return fmt.Errorf("lutmap: LUT at %d has %d inputs (k=%d)", l.Root, len(l.Leaves), k)
		}
		roots[l.Root] = true
	}
	for _, l := range m.LUTs {
		for _, leaf := range l.Leaves {
			n := a.N(leaf)
			if n.IsAnd() && !roots[leaf] {
				return fmt.Errorf("lutmap: LUT at %d reads unmapped node %d", l.Root, leaf)
			}
		}
	}
	for _, po := range a.POs() {
		if a.NodeOf(po).IsAnd() && !roots[po.Node()] {
			return fmt.Errorf("lutmap: PO node %d unmapped", po.Node())
		}
	}
	return nil
}

// Evaluate computes the mapped network's outputs for a single input
// assignment by building each LUT's truth table from the underlying cone
// — the functional cross-check used by the tests and the harness.
func Evaluate(a *aig.AIG, m Mapping, inputs []bool) ([]bool, error) {
	if len(inputs) != a.NumPIs() {
		return nil, fmt.Errorf("lutmap: %d inputs for %d PIs", len(inputs), a.NumPIs())
	}
	vals := map[int32]bool{0: false}
	for i, pi := range a.PIs() {
		vals[pi] = inputs[i]
	}
	// LUTs were appended in dependency order by extractCover (leaves
	// before roots).
	win := cone.New(a)
	for _, l := range m.LUTs {
		f, ok := win.Simulate(l.Root, l.Leaves, math.MaxInt)
		if !ok {
			return nil, fmt.Errorf("lutmap: cone of LUT at %d escapes its leaves", l.Root)
		}
		row := uint(0)
		for i, leaf := range l.Leaves {
			v, ok := vals[leaf]
			if !ok {
				return nil, fmt.Errorf("lutmap: leaf %d evaluated before definition", leaf)
			}
			if v {
				row |= 1 << uint(i)
			}
		}
		vals[l.Root] = f.Eval(row)
	}
	out := make([]bool, a.NumPOs())
	for kIdx, po := range a.POs() {
		v, ok := vals[po.Node()]
		if !ok {
			return nil, fmt.Errorf("lutmap: PO %d unevaluated", kIdx)
		}
		out[kIdx] = v != po.Compl()
	}
	return out, nil
}
