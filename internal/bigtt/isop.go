package bigtt

// Scratch is the working memory of Cover: the arena its recursion draws
// half-tables from and the stack its cubes are appended to. The zero
// value is ready; once it has served a table size, further calls of that
// size allocate nothing. A Scratch serves one goroutine.
type Scratch struct {
	words []uint64
	top   int
	cubes []Cube
}

// Cover computes an irredundant sum-of-products cover of some g with
// lower ⊆ g ⊆ upper (Minato–Morreale) and g's table. The cube order is
// part of the contract — for the top variable x of every recursion step,
// the cubes with ¬x, then those with x, then those without — because
// factoring breaks ties by position. Both results are views into the
// scratch, valid until its next Cover.
func (s *Scratch) Cover(lower, upper TT) ([]Cube, TT) {
	lower.check(upper)
	nv := lower.nvars
	nw := NumWords(nv)
	// The result, then three half-size temporaries per recursion level:
	// nw + 3(nw/2 + nw/4 + ...) < 4nw.
	if len(s.words) < 4*nw {
		s.words = make([]uint64, 4*nw)
	}
	out := s.words[:nw]
	s.top = nw
	s.cubes = s.cubes[:0]
	if nv <= 6 {
		out[0] = s.isop6(lower.words[0], upper.words[0], nv)
	} else {
		s.isop(lower.words, upper.words, nv, out)
	}
	return s.cubes, TT{nvars: nv, words: out}
}

// isop is one step over tables of nv >= 6 variables (len(out) words
// each); it writes g's table to out and appends g's cubes. As in ABC's
// Kit_TruthIsop, the cofactors of a top variable x >= 6 are the halves of
// the word slices, and g is composed from the sub-results, g|¬x = g2|g0
// and g|x = g2|g1, not re-expanded from the cubes.
func (s *Scratch) isop(lower, upper []uint64, nv int, out []uint64) {
	if allEqual(lower, 0) {
		fill(out, 0)
		return
	}
	if allEqual(upper, ^uint64(0)) {
		s.cubes = append(s.cubes, Cube{})
		fill(out, ^uint64(0))
		return
	}
	x := nv - 1
	for x >= 0 && !dependsOn(lower, x) && !dependsOn(upper, x) {
		x--
	}
	if x < 6 {
		// Every word is the same function of the variables up to x.
		m := WordMask(x + 1)
		fill(out, replicate(s.isop6(lower[0]&m, upper[0]&m, x+1), x+1, 6))
		return
	}
	hw := 1 << (x - 6)
	l0, l1, u0, u1 := lower[:hw], lower[hw:2*hw], upper[:hw], upper[hw:2*hw]
	g0, g1 := out[:hw], out[hw:2*hw]
	mark := s.top
	tmp, both, g2 := s.alloc(hw), s.alloc(hw), s.alloc(hw)

	c0 := len(s.cubes)
	for i := range tmp {
		tmp[i] = l0[i] &^ u1[i]
	}
	s.isop(tmp, u0, x, g0)
	c1 := len(s.cubes)
	for i := range tmp {
		tmp[i] = l1[i] &^ u0[i]
	}
	s.isop(tmp, u1, x, g1)
	c2 := len(s.cubes)
	for i := range tmp {
		tmp[i] = l0[i]&^g0[i] | l1[i]&^g1[i]
		both[i] = u0[i] & u1[i]
	}
	s.isop(tmp, both, x, g2)
	s.addLiteral(c0, c1, c2, x)

	for i := range g2 {
		g0[i] |= g2[i]
		g1[i] |= g2[i]
	}
	// g does not depend on the variables skipped above x.
	for n := 2 * hw; n < len(out); n *= 2 {
		copy(out[n:2*n], out[:n])
	}
	s.top = mark
}

// isop6 is isop inside one word: l and u hold tables of nv <= 6 variables
// in their low 2^nv bits, the cofactors are shifts.
func (s *Scratch) isop6(l, u uint64, nv int) uint64 {
	if l == 0 {
		return 0
	}
	full := WordMask(nv)
	x := nv - 1
	for x >= 0 && !wordDependsOn(l, x) && !wordDependsOn(u, x) {
		x--
	}
	if u == full || x < 0 {
		s.cubes = append(s.cubes, Cube{})
		return full
	}
	sh := uint(1) << x
	m := uint64(1)<<sh - 1
	l0, l1, u0, u1 := l&m, l>>sh&m, u&m, u>>sh&m

	c0 := len(s.cubes)
	g0 := s.isop6(l0&^u1, u0, x)
	c1 := len(s.cubes)
	g1 := s.isop6(l1&^u0, u1, x)
	c2 := len(s.cubes)
	g2 := s.isop6(l0&^g0|l1&^g1, u0&u1, x)
	s.addLiteral(c0, c1, c2, x)
	return replicate(g2|g0|(g2|g1)<<sh, x+1, nv)
}

// addLiteral puts ¬x on cubes [c0, c1) and x on cubes [c1, c2).
func (s *Scratch) addLiteral(c0, c1, c2, x int) {
	bit := uint32(1) << x
	for i := c0; i < c2; i++ {
		s.cubes[i].Lits |= bit
	}
	for i := c1; i < c2; i++ {
		s.cubes[i].Phase |= bit
	}
}

func (s *Scratch) alloc(n int) []uint64 {
	s.top += n
	return s.words[s.top-n : s.top]
}

// replicate extends a table of from variables in the low bits of a word
// to one of to <= 6 variables that ignores the added ones.
func replicate(w uint64, from, to int) uint64 {
	for k := from; k < to; k++ {
		w |= w << (1 << k)
	}
	return w
}
