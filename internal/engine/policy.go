package engine

import "dacpara/internal/aig"

// ByLevel partitions the live AND nodes by level (depth from the PIs) —
// the paper's nodeDividing step, the worklist array of Algorithm 1.
// Worklists[i] holds the nodes of level i+1 (level 0 is the PIs, which
// need no optimization).
func ByLevel(a *aig.AIG) [][]int32 {
	a.Levelize()
	var lists [][]int32
	a.ForEachAnd(func(id int32) {
		lv := int(a.N(id).Level()) - 1
		for len(lists) <= lv {
			lists = append(lists, nil)
		}
		lists[lv] = append(lists[lv], id)
	})
	return lists
}

// LevelOrder is ByLevel's lists concatenated into one worklist: the
// whole graph as a single unit of work, in level order. With a serial
// commit this is the static GPU models' schedule — every node enumerated
// and evaluated against the unchanged input graph, then the stored
// decisions applied level by level.
func LevelOrder(a *aig.AIG) [][]int32 {
	var all []int32
	for _, wl := range ByLevel(a) {
		all = append(all, wl...)
	}
	return [][]int32{all}
}

// Flat is the level-partitioning ablation: one worklist holding every
// live AND node in topological order. With a split pass, evaluation then
// races far ahead of replacement validity — stored results go stale much
// more often — which is exactly what nodeDividing prevents. It is also
// the natural policy for a commit-only pass, which has no phase barriers
// to exploit levels (abc's serial sweep: a node that dies before its
// turn is skipped at visit time).
func Flat(a *aig.AIG) [][]int32 {
	var all []int32
	for _, id := range a.TopoOrder(nil) {
		if a.N(id).IsAnd() {
			all = append(all, id)
		}
	}
	return [][]int32{all}
}
