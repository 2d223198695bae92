package cut

import (
	"dacpara/internal/aig"
	"dacpara/internal/tt"
)

// A stored cut set is one []uint32 of stride(k) words per cut, k the
// manager's width:
//
//	words 0..k-1   the leaves, ascending, then noLeaf up to word k-1
//	word k         Stamp, all 32 bits
//	words k+1..    the table narrowed to the width: 16 bits in one word
//	               at k = 4, 32 bits at k = 5, both halves of the 64-bit
//	               table at k = 6
//
// That is 24, 28 and 36 bytes a cut, against the working Cut's 48. The
// size is the index of the first noLeaf (k if there is none) and the
// signature follows from the leaves, so neither is stored. A stored
// table widens back by replication, which is exact: a cut never depends
// on a variable at or above its size, let alone k. Cuts are packed when
// a set is committed and unpacked in two places: the fanin sets of a
// merge, and the set a reader takes through CutsP.

// noLeaf fills the leaf words past a stored cut's size. No node ID
// reads as it.
const noLeaf = ^uint32(0)

// stride is the number of words a stored cut of width k takes.
func stride(k int) int {
	if k == MaxK {
		return k + 3
	}
	return k + 2
}

// pack writes c into w, stride(k) words.
func pack(w []uint32, c *Cut, k int) {
	if k == K {
		pack4((*[6]uint32)(w), c)
		return
	}
	w = w[:stride(k)]
	for i := range k {
		w[i] = leafWord(c, i)
	}
	w[k] = c.Stamp
	if k == 5 {
		w[6] = uint32(c.TT)
	} else {
		w[7], w[8] = uint32(c.TT), uint32(c.TT>>32)
	}
}

// pack4 is pack at the classic width, unrolled: the width of every run
// that does not ask for another.
func pack4(w *[6]uint32, c *Cut) {
	w[0], w[1], w[2], w[3] = leafWord(c, 0), leafWord(c, 1), leafWord(c, 2), leafWord(c, 3)
	w[4] = c.Stamp
	w[5] = uint32(c.TT.Narrow16())
}

// leafWord is the stored word of c's leaf slot i.
func leafWord(c *Cut, i int) uint32 {
	v := uint32(c.Leaves[i])
	if i >= int(c.Size) {
		v = noLeaf
	}
	return v
}

// unpack sets c to the cut w holds: NewCut's value for its leaves and
// table, stamped. It does not branch on the size: node IDs are below
// 1<<31, so a leaf word's top bit is set exactly when it is noLeaf. Every
// field is written in place; a Cut built on the stack and copied out
// would read back its leaves wider than they were written, which stalls.
func unpack(c *Cut, w []uint32, k int) {
	if k == K {
		unpack4(c, (*[6]uint32)(w))
		return
	}
	w = w[:stride(k)]
	var sig uint64
	size := MaxK
	for i := range c.Leaves {
		l := noLeaf
		if i < k {
			l = w[i]
		}
		none := l >> 31
		size -= int(none)
		c.Leaves[i] = int32(l &^ -none)
		sig |= uint64(none^1) << (l & 63)
	}
	c.Stamp, c.Size, c.sig = w[k], uint8(size), sig
	if k == 5 {
		c.TT = tt.Func64(uint64(w[6]) * (1<<32 + 1))
	} else {
		c.TT = tt.Func64(uint64(w[7]) | uint64(w[8])<<32)
	}
}

// unpack4 is unpack at the classic width, unrolled.
func unpack4(c *Cut, w *[6]uint32) {
	l0, l1, l2, l3 := w[0], w[1], w[2], w[3]
	n0, n1, n2, n3 := l0>>31, l1>>31, l2>>31, l3>>31
	c.Leaves[0] = int32(l0 &^ -n0)
	c.Leaves[1] = int32(l1 &^ -n1)
	c.Leaves[2] = int32(l2 &^ -n2)
	c.Leaves[3] = int32(l3 &^ -n3)
	c.Leaves[4], c.Leaves[5] = 0, 0
	c.Stamp = w[4]
	c.Size = uint8(4 - n0 - n1 - n2 - n3)
	c.TT = tt.Func16(w[5]).Wide()
	c.sig = uint64(n0^1)<<(l0&63) | uint64(n1^1)<<(l1&63) | uint64(n2^1)<<(l2&63) | uint64(n3^1)<<(l3&63)
}

// unpackSet unpacks the stored set w of width k into dst, which has room
// for it. With a graph it keeps only the cuts Fresh on it, in their
// order.
func unpackSet(dst []Cut, w []uint32, k int, fresh *aig.AIG) []Cut {
	s := stride(k)
	dst = dst[:len(w)/s]
	n := 0
	for off := 0; off < len(w); off += s {
		c := &dst[n]
		unpack(c, w[off:], k)
		if fresh == nil || c.Fresh(fresh) {
			n++
		}
	}
	return dst[:n]
}
