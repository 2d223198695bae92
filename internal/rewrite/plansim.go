package rewrite

import (
	"dacpara/internal/aig"
	"dacpara/internal/engine"
)

// replaceSim rehearses aig.Replace on a reference-count overlay without
// mutating the graph. It visits — and locks — exactly the nodes the real
// replacement will touch: the fanouts of the replaced node and their
// other fanins, the cascade of fanouts that simplify away, and the cone
// that dies when its references reach zero. Afterwards the commit can run
// without any possibility of a mid-mutation conflict, the returned
// deletion count makes the gain exact, and the scratch's dead list names
// the nodes whose cut sets the commit gives back.
type replaceSim struct {
	a      *aig.AIG
	lock   engine.Locker
	ov     *overlay // reference-count changes; fanouts redirected; nodes deleted
	dead   *[]int32 // the nodes deleted, in the order the rehearsal deletes them
	visits int
}

// newReplaceSim opens a rehearsal on the scratch's overlay and dead list,
// both emptied.
func newReplaceSim(a *aig.AIG, lock engine.Locker, s *Scratch) replaceSim {
	s.ov.begin()
	s.dead = s.dead[:0]
	return replaceSim{a: a, lock: lock, ov: &s.ov, dead: &s.dead}
}

func (s *replaceSim) lk(id int32) bool { return s.lock == nil || s.lock(id) }

func (s *replaceSim) effRef(id int32) int32 {
	return s.a.N(id).Ref() + s.ov.at(id).delta
}

// run rehearses replacing node root with literal out (outNew means the
// literal will be a freshly created gate, unknown to the current graph).
// It returns the number of AND nodes the real replacement will delete.
func (s *replaceSim) run(root int32, out aig.Lit, outNew bool) (deleted int, ok, conflict bool) {
	if ok, conflict = s.simReplace(root, out, outNew); !ok {
		return 0, ok, conflict
	}
	return len(*s.dead), true, false
}

// simReplace models redirecting every reference of v to repl.
func (s *replaceSim) simReplace(v int32, repl aig.Lit, freshRepl bool) (ok, conflict bool) {
	if s.visits++; s.visits > planLimit {
		return false, false
	}
	if !freshRepl && !s.lk(repl.Node()) {
		return false, true
	}
	vn := s.a.N(v)
	for _, e := range vn.Fanouts() {
		if s.visits++; s.visits > planLimit {
			return false, false
		}
		if _, isPO := aig.IsPOFanout(e); isPO {
			s.ov.at(v).delta--
			if !freshRepl {
				s.ov.at(repl.Node()).delta++
			}
			continue
		}
		f := e
		nf := s.ov.at(f)
		if nf.touched {
			// The fanout is affected by more than one step of the cascade;
			// the overlay cannot track its intermediate fanin state, so
			// give up on this candidate (rare).
			return false, false
		}
		nf.touched = true
		if !s.lk(f) {
			return false, true
		}
		fn := s.a.N(f)
		l0, l1 := fn.Fanin0(), fn.Fanin1()
		var other aig.Lit
		var newLit aig.Lit
		if l0.Node() == v {
			newLit = repl.XorCompl(l0.Compl())
			other = l1
		} else {
			newLit = repl.XorCompl(l1.Compl())
			other = l0
		}
		if !s.lk(other.Node()) {
			return false, true
		}
		if !freshRepl {
			if res, triv := aig.SimplifyAnd(newLit, other); triv {
				// f itself simplifies away: all its references move to
				// res, then f dies, releasing v and other.
				if ok, cf := s.simReplace(f, res, false); !ok {
					return false, cf
				}
				if s.effRef(f) != 0 {
					return false, false
				}
				if ok, cf := s.simDelete(f); !ok {
					return false, cf
				}
				continue
			}
		}
		// Plain rehash: f drops its reference to v and gains one on repl.
		s.ov.at(v).delta--
		if !freshRepl {
			s.ov.at(repl.Node()).delta++
		}
	}
	if s.effRef(v) == 0 && !s.ov.at(v).dead {
		if ok, conflict = s.simDelete(v); !ok {
			return false, conflict
		}
	}
	return true, false
}

// simDelete models deleteNodeCone: v dies, dereferencing its fanins and
// recursively deleting those that reach zero.
func (s *replaceSim) simDelete(v int32) (ok, conflict bool) {
	if s.ov.at(v).dead {
		return true, false
	}
	if s.visits++; s.visits > planLimit {
		return false, false
	}
	vn := s.a.N(v)
	if !vn.IsAnd() {
		return false, false
	}
	s.ov.at(v).dead = true
	*s.dead = append(*s.dead, v)
	for _, fl := range [2]aig.Lit{vn.Fanin0(), vn.Fanin1()} {
		fid := fl.Node()
		if !s.lk(fid) {
			return false, true
		}
		nf := s.ov.at(fid)
		nf.delta--
		if s.a.N(fid).Ref()+nf.delta == 0 && s.a.N(fid).IsAnd() && !nf.dead {
			if ok, conflict = s.simDelete(fid); !ok {
				return ok, conflict
			}
		}
	}
	return true, false
}
