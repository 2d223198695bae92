package rewlib

import (
	"sort"
	"sync"

	"dacpara/internal/tt"
)

// BigClass is the Candidate class sentinel rewriting uses for large-cut
// candidates: big classes are keyed by semi-canonical representative
// (tt.Func64), not by a dense 4-input class index.
const BigClass = -1

// DefaultBigPerClass bounds the forest kept per large class. Large-cut
// evaluation is far heavier per structure than the 4-input loop, so the
// default is modest.
const DefaultBigPerClass = 16

// BigLibrary is the large-cut structure forest: semi-canonical
// representative -> structures implementing it. Unlike the dense 4-input
// Library, the 6-variable space cannot be enumerated, so the forest is
// populated from two sources: a precomputed dacpara-rewlib/v1 file
// (ReadFile) and on-demand synthesis for classes the file does not cover.
// Both sources run the same deterministic synthesizer, so a preloaded
// library is purely an acceleration — results do not depend on whether a
// class came from disk or was synthesized live.
//
// BigLibrary is safe for concurrent use; on-demand synthesis for the same
// representative may race benignly (both compute the identical forest,
// one wins the cache slot).
type BigLibrary struct {
	maxPerClass int

	mu     sync.RWMutex
	forest map[tt.Func64][]Structure
}

// NewBigLibrary creates an empty large-cut library. maxPerClass <= 0
// means DefaultBigPerClass.
func NewBigLibrary(maxPerClass int) *BigLibrary {
	if maxPerClass <= 0 {
		maxPerClass = DefaultBigPerClass
	}
	return &BigLibrary{maxPerClass: maxPerClass, forest: make(map[tt.Func64][]Structure, 1024)}
}

// ForRepr returns the forest of the semi-canonical representative repr,
// synthesizing and caching it on first use. The returned slice must not
// be modified.
func (b *BigLibrary) ForRepr(repr tt.Func64) []Structure {
	b.mu.RLock()
	s, ok := b.forest[repr]
	b.mu.RUnlock()
	if ok {
		return s
	}
	// A synthesis error names a structure the synthesizer has already
	// left out; the forest it returns holds only verified ones.
	s, _ = synthesizeAll64(repr, MaxInputs, b.maxPerClass)
	b.mu.Lock()
	if prior, ok := b.forest[repr]; ok {
		s = prior
	} else {
		b.forest[repr] = s
	}
	b.mu.Unlock()
	return s
}

// Preload installs a forest for repr, typically from a library file. An
// empty forest is legal (the class is known to have no usable structure).
// It returns false — without installing — when any structure fails
// functional verification against repr, so a corrupt or adversarial file
// can never inject wrong logic.
func (b *BigLibrary) Preload(repr tt.Func64, structs []Structure) bool {
	for i := range structs {
		if structs[i].Func64() != repr {
			return false
		}
	}
	b.mu.Lock()
	b.forest[repr] = structs
	b.mu.Unlock()
	return true
}

// Classes returns the cached representatives in ascending order — the
// deterministic iteration the library writer serializes in.
func (b *BigLibrary) Classes() []tt.Func64 {
	b.mu.RLock()
	out := make([]tt.Func64, 0, len(b.forest))
	for r := range b.forest {
		out = append(out, r)
	}
	b.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of cached classes.
func (b *BigLibrary) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.forest)
}
