// Package resub implements window-based resubstitution (ABC's `resub`):
// each node is re-expressed, when possible, as a simple function of
// *divisors* — existing nodes in its reconvergence window that survive
// the replacement — freeing the node's MFFC. Resubstitution finds savings
// neither cut rewriting (bounded to 4 inputs) nor refactoring (bounded to
// one cone) can express, and completes the classic optimization trio in
// synthesis scripts.
package resub

import (
	"context"
	"math/bits"
	"slices"

	"dacpara/internal/aig"
	"dacpara/internal/bigtt"
	"dacpara/internal/cone"
	"dacpara/internal/engine"
	"dacpara/internal/metrics"
	"dacpara/internal/rewrite"
)

// The window bounds: the cut width, the divisor set per node and the
// cone a search simulates.
const (
	maxLeaves   = 8
	maxDivisors = 50
	maxCone     = 300
)

// Config tunes resubstitution.
type Config struct {
	// ZeroGain also accepts size-neutral substitutions.
	ZeroGain bool
	// Metrics, when non-nil, collects the engine's per-phase timings and
	// per-level parallelism.
	Metrics *metrics.Collector
}

// minGain is the commit threshold: 1 node saved, or 0 with ZeroGain.
func (c Config) minGain() int {
	if c.ZeroGain {
		return 0
	}
	return 1
}

// Run resubstitutes over the network in place. It applies the paper's
// divide-and-conquer principle to resubstitution: nodes are divided by
// level; the expensive stage — window growth, cone simulation and divisor
// matching — runs lock-free on the workers against the immutable graph
// (barrier semantics, like DACPara's paraEvaOperator), and a serial
// commit stage re-validates every stored candidate on the latest graph
// before substituting. The output does not depend on the worker count.
// Cancellation is observed at level boundaries; a cancelled run returns
// the wrapped ctx error with a structurally consistent, partially
// resubstituted network and the Result marked Incomplete.
func Run(ctx context.Context, a *aig.AIG, cfg Config, workers int) (rewrite.Result, error) {
	return engine.Run(ctx, a, &resubPass{a: a, cfg: cfg}, engine.Plan{
		Name:      "resub",
		Partition: engine.ByLevel,
		// Substitutions rewire whole MFFCs; instead of locking them, the
		// serial commit re-validates every stored candidate on the
		// latest graph (version, window function, divisor liveness,
		// re-counted gain).
		SerialCommit: true,
	}, engine.Exec{Workers: workers, Metrics: cfg.Metrics})
}

// resubPrep is one node's stored candidate plus everything commit-time
// revalidation needs: the window and the function it was matched
// against, both copied out of the searching worker's scratch.
type resubPrep struct {
	cand    resubCand
	rootVer uint32
	leaves  []int32
	f       bigtt.TT
}

// resubPass is resubstitution as a framework pass: Evaluate runs the
// divisor search lock-free and stores the first match; Commit
// re-validates it on the latest graph before substituting.
type resubPass struct {
	a   *aig.AIG
	cfg Config

	// states holds one resubber per worker slot; none is ever used by two
	// goroutines.
	states []*resubber
	prep   []resubPrep
}

var (
	_ engine.Pass      = (*resubPass)(nil)
	_ engine.Evaluator = (*resubPass)(nil)
)

func (p *resubPass) Begin(slots int, _ engine.Env) {
	p.states = make([]*resubber, slots)
	for w := range p.states {
		p.states[w] = newResubber(p.a, p.cfg)
	}
	p.prep = make([]resubPrep, p.a.Capacity())
}

func (p *resubPass) Evaluate(worker int, id int32) bool {
	p.prep[id] = resubPrep{}
	if !p.a.N(id).IsAnd() {
		return false
	}
	if cand, leaves, f := p.states[worker].search(id); cand.kind != candNone {
		p.prep[id] = resubPrep{cand: cand, rootVer: p.a.N(id).Version(), leaves: slices.Clone(leaves), f: f.Clone()}
	}
	return true
}

func (p *resubPass) Stored(id int32) bool { return p.prep[id].cand.kind != candNone }

func (p *resubPass) Commit(worker int, id int32, _ engine.Locker) engine.Status {
	c := &p.prep[id]
	r := p.states[worker]
	a, w := p.a, r.win
	// Dynamic re-validation on the latest graph: the root must be
	// untouched, the window leaves alive, the window function unchanged,
	// the candidate's divisors still outside the (re-counted) MFFC, and
	// the substitution relation must still hold over the recomputed
	// divisor functions.
	if a.N(id).Version() != c.rootVer || !a.N(id).IsAnd() {
		return engine.StatusStale
	}
	for _, l := range c.leaves {
		if a.N(l).IsDead() {
			return engine.StatusStale
		}
	}
	f, ok := w.Simulate(id, c.leaves, maxCone)
	if !ok || !f.Equal(c.f) {
		return engine.StatusStale
	}
	// A copy adds no gate; an AND or XOR is charged one.
	cost := 1
	if c.cand.kind == candCopy {
		cost = 0
	}
	if w.MFFC(id, c.leaves)-cost < p.cfg.minGain() {
		return engine.StatusNoGain
	}
	// A divisor is a leaf or a cone node that survives the substitution.
	t1, ok1 := w.TableOf(c.cand.l1.Node())
	if !ok1 || w.InMFFC(c.cand.l1.Node()) {
		return engine.StatusStale
	}
	var holds bool
	if c.cand.kind != candCopy {
		t2, ok2 := w.TableOf(c.cand.l2.Node())
		holds = ok2 && !w.InMFFC(c.cand.l2.Node()) &&
			matching(t1.Words(), t2.Words(), f.Words(), bigtt.WordMask(len(c.leaves)), 1<<c.cand.form()) != 0
	} else if c.cand.l1.Compl() {
		holds = t1.EqualNot(f)
	} else {
		holds = t1.Equal(f)
	}
	if !holds {
		return engine.StatusStale
	}
	if !r.apply(id, c.cand) {
		return engine.StatusNoGain
	}
	return engine.StatusCommitted
}

// resubber is one worker's state: the graph, its window scratch and the
// divisor list of the node under search. It serves one goroutine.
type resubber struct {
	a    *aig.AIG
	cfg  Config
	win  *cone.Window
	divs []divisor
}

func newResubber(a *aig.AIG, cfg Config) *resubber {
	return &resubber{a: a, cfg: cfg, win: cone.New(a)}
}

// divisor is a window node that survives the substitution, with its
// table in the window.
type divisor struct {
	id int32
	tt bigtt.TT
}

// candKind tags a stored substitution candidate.
type candKind int

const (
	candNone candKind = iota
	// candCopy: root equals the divisor literal l1 (0-resub).
	candCopy
	// candGate: root is one AND of the divisor literals l1, l2 (1-resub).
	candGate
	// candXor: root is an XOR of the divisors under l1 and l2.
	candXor
)

// resubCand is the first applicable substitution search finds — pure
// data, so the pass can store it and re-validate later.
type resubCand struct {
	kind   candKind
	l1, l2 aig.Lit
	compl  bool // candGate / candXor output complement
}

// The functions of two divisors a search tries are the bits of a form
// mask, in the order it prefers them: for each input phase pair p (bit 0
// complements the first divisor, bit 1 the second) the AND at bit 2p and
// the NAND at bit 2p+1, then the XOR at bit 8 and the XNOR at bit 9 (an
// XOR absorbs input complements, so it has no phase sweep).
const (
	xorForm  = 8
	allForms = 1<<10 - 1
)

// form returns the bit of a two-divisor candidate in a form mask.
func (c resubCand) form() uint {
	if c.kind == candXor {
		return xorForm + b2u(c.compl)
	}
	return 2*(b2u(c.l1.Compl())|b2u(c.l2.Compl())<<1) + b2u(c.compl)
}

func b2u(b bool) uint {
	if b {
		return 1
	}
	return 0
}

// formCand is form's inverse over divisors d1 and d2.
func formCand(form uint, d1, d2 int32) resubCand {
	if form >= xorForm {
		return resubCand{kind: candXor, l1: aig.MakeLit(d1, false), l2: aig.MakeLit(d2, false), compl: form&1 == 1}
	}
	return resubCand{kind: candGate, l1: aig.MakeLit(d1, form>>1&1 == 1), l2: aig.MakeLit(d2, form>>2&1 == 1), compl: form&1 == 1}
}

// matching returns the forms of want that, over the divisor tables a and
// b, equal f. It compares word by word and stops when no form is left;
// full is the tables' word mask.
func matching(a, b, f []uint64, full uint64, want uint) uint {
	for i, fw := range f {
		x, y := a[i], b[i]
		nx, ny := x^full, y^full
		var eq uint
		for p, g := range [4]uint64{x & y, nx & y, x & ny, nx & ny} {
			if g == fw {
				eq |= 1 << (2 * p)
			}
			if g^fw == full {
				eq |= 2 << (2 * p)
			}
		}
		if x^y == fw {
			eq |= 1 << xorForm
		}
		if x^y^fw == full {
			eq |= 2 << xorForm
		}
		if want &= eq; want == 0 {
			break
		}
	}
	return want
}

// search finds the first applicable substitution for root without
// touching the graph. With a candidate, the leaves and window function
// are returned for commit-time revalidation and live in the window until
// its next use.
func (r *resubber) search(root int32) (resubCand, []int32, bigtt.TT) {
	none := resubCand{}
	w := r.win
	leaves, ok := w.Cut(root, maxLeaves)
	if !ok || len(leaves) < 2 {
		return none, nil, bigtt.TT{}
	}
	// Window functions: the root's cone over the leaves, tracking each
	// inner node's table.
	fRoot, ok := w.Simulate(root, leaves, maxCone)
	if !ok {
		return none, nil, bigtt.TT{}
	}
	// The MFFC of root dies on substitution; divisors must survive, so
	// exclude it.
	saved := w.MFFC(root, leaves)

	r.divs = r.divs[:0]
	for i, l := range leaves {
		r.divs = append(r.divs, divisor{id: l, tt: w.Table(i)})
	}
	for i, id := range w.Cone() {
		if w.InMFFC(id) {
			continue
		}
		r.divs = append(r.divs, divisor{id: id, tt: w.Table(len(leaves) + i)})
		if len(r.divs) >= maxDivisors {
			break
		}
	}

	minGain := r.cfg.minGain()

	// 0-resub: the root equals an existing divisor (or its complement).
	if saved >= minGain {
		for _, d := range r.divs {
			if d.tt.Equal(fRoot) {
				return resubCand{kind: candCopy, l1: aig.MakeLit(d.id, false)}, leaves, fRoot
			}
			if d.tt.EqualNot(fRoot) {
				return resubCand{kind: candCopy, l1: aig.MakeLit(d.id, true)}, leaves, fRoot
			}
		}
	}

	// 1-resub: root = g(d1, d2) for a single fresh gate; costs 1 node,
	// needs saved >= 2 for positive gain (or >= 1 for zero-gain).
	if saved-1 < minGain {
		return none, nil, bigtt.TT{}
	}
	f, full := fRoot.Words(), bigtt.WordMask(len(leaves))
	for i, d1 := range r.divs {
		for _, d2 := range r.divs[i+1:] {
			if m := matching(d1.tt.Words(), d2.tt.Words(), f, full, allForms); m != 0 {
				return formCand(uint(bits.TrailingZeros(m)), d1.id, d2.id), leaves, fRoot
			}
		}
	}
	return none, nil, bigtt.TT{}
}

// apply commits a found candidate to the graph, re-running the
// structural guards (root reuse, hash-lookup no-ops, XOR cost check); it
// reports whether the graph changed.
func (r *resubber) apply(root int32, c resubCand) bool {
	switch c.kind {
	case candCopy:
		return r.commit(root, c.l1)
	case candGate:
		return r.commitGate(root, c.l1, c.l2, c.compl)
	case candXor:
		return r.commitXor(root, c.l1.Node(), c.l2.Node(), c.compl)
	}
	return false
}

// commit replaces root by an existing literal.
func (r *resubber) commit(root int32, l aig.Lit) bool {
	if l.Node() == root {
		return false
	}
	r.a.Replace(root, l, aig.ReplaceOptions{CascadeMerge: true})
	return true
}

// commitGate replaces root by a fresh (or shared) AND gate over two
// divisors.
func (r *resubber) commitGate(root int32, l1, l2 aig.Lit, compl bool) bool {
	if l1.Node() == root || l2.Node() == root {
		return false
	}
	// A structural lookup may resolve to the root itself (same fanin
	// pair); reject that no-op.
	if g, ok := r.a.Lookup(l1, l2); ok && g.Node() == root {
		return false
	}
	out := r.a.And(l1, l2).XorCompl(compl)
	if out.Node() == root {
		return false
	}
	r.a.Replace(root, out, aig.ReplaceOptions{CascadeMerge: true})
	return true
}

// commitXor replaces root by an XOR of two divisors (three gates, so it
// only fires when the 0/1-resub checks found nothing cheaper; the gain
// check happened against the single-gate budget, so require a larger
// MFFC). All three gate pairs are pre-checked against the structural
// hash BEFORE building, so the root is never reused as an intermediate
// (cycle) and a bail-out never leaves dangling gates behind.
func (r *resubber) commitXor(root int32, d1, d2 int32, compl bool) bool {
	if d1 == root || d2 == root {
		return false
	}
	if r.win.MFFC(root, nil) < 4 { // root's whole MFFC: 3 fresh gates + headroom
		return false
	}
	a := r.a
	la := aig.MakeLit(d1, false)
	lb := aig.MakeLit(d2, false)
	e1, ok1 := a.Lookup(la, lb.Not())
	if ok1 && e1.Node() == root {
		return false
	}
	e2, ok2 := a.Lookup(la.Not(), lb)
	if ok2 && e2.Node() == root {
		return false
	}
	if ok1 && ok2 {
		if e3, ok3 := a.Lookup(e1.Not(), e2.Not()); ok3 && e3.Node() == root {
			return false
		}
	}
	out := a.Xor(la, lb).XorCompl(compl)
	if out.Node() == root {
		return false
	}
	a.Replace(root, out, aig.ReplaceOptions{CascadeMerge: true})
	return true
}
