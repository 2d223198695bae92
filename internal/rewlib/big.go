package rewlib

import "dacpara/internal/tt"

// BigClass is the Candidate class sentinel rewriting uses for large-cut
// candidates: big classes are keyed by semi-canonical representative
// (tt.Func64), not by a dense 4-input class index.
const BigClass = -1

// DefaultBigPerClass bounds the forest kept per large class. Large-cut
// evaluation is far heavier per structure than the 4-input loop, so the
// bound is modest.
const DefaultBigPerClass = 16

// ForRepr returns the forest of the 5/6-input class with semi-canonical
// representative repr, synthesizing and caching it on first use. Unlike
// the 222 dense 4-input classes, the 6-variable space cannot be
// enumerated up front, and the synthesizer is the forest's one source:
// what a class gets depends on nothing but repr. The returned slice must
// not be modified.
//
// ForRepr is safe for concurrent use; synthesis for the same
// representative may race benignly (both compute the identical forest,
// one wins the cache slot).
func (l *Library) ForRepr(repr tt.Func64) []Structure {
	l.bigMu.RLock()
	s, ok := l.big[repr]
	l.bigMu.RUnlock()
	if ok {
		return s
	}
	// A synthesis error names a structure the synthesizer has already
	// left out; the forest it returns holds only verified ones.
	s, _ = newBuilder64(MaxInputs).synthesizeAll64(repr, DefaultBigPerClass)
	l.bigMu.Lock()
	if prior, ok := l.big[repr]; ok {
		s = prior
	} else {
		l.big[repr] = s
	}
	l.bigMu.Unlock()
	return s
}
