// Package sat implements a CDCL Boolean satisfiability solver in the
// MiniSat lineage: two-literal watches, first-UIP conflict analysis with
// clause learning, VSIDS variable activities with phase saving, and Luby
// restarts. The combinational equivalence checker uses it to prove miter
// outputs unsatisfiable; it is deliberately dependency-free and compact.
//
// One search loop serves two kinds of call. Solve and SolveLimited decide
// over every variable. SolveWithin decides only over a variable set the
// caller names and answers SAT once that set is assigned without
// conflict — sound when the set is closed the way a circuit cone is (see
// SolveWithin). It is what makes a satisfiable query on one small cone
// of a large incremental circuit encoding cost that cone, not the whole
// solver. Either way the decision order (the activity heap) belongs to
// one call and is built at the call's first decision, so a call that
// propagation alone refutes never pays for it.
//
// The clauses live in one arena of literals, named by int32 handles: the
// clause database holds no pointer.
package sat

// Lit is a literal: 2*variable + 1 for negative polarity.
type Lit int32

// MkLit builds a literal for variable v (0-based).
func MkLit(v int, neg bool) Lit {
	l := Lit(v) << 1
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// Neg reports negative polarity.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement.
func (l Lit) Not() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// Clause c is arena[c:c+clauseHead+size]: a header (size << hdrShift |
// flags), an activity word (a learnt clause's index in learnts and acts,
// else 0) and the literals.
const (
	hdrLearnt  = 1
	hdrDeleted = 2
	hdrShift   = 2
	clauseHead = 2
	noReason   = -1 // the reason of a decision, an assumption or a root unit
)

// A watcher of clause c: when blocker, a literal of c, is true, c is not
// read. A binary clause's watcher holds ^c (negative) and the other
// literal as its blocker, so propagation never reads the arena for it.
type watcher struct {
	c       int32
	blocker Lit
}

// proofStep says what a clause told to a proof log is.
type proofStep uint8

const (
	proofInput  proofStep = iota // a clause given to AddClause, as given
	proofLearnt                  // a clause the search derived
	proofUnsat                   // an UNSAT answer: the negated assumptions
)

// newProof, when set, gives every solver New returns a proof log. Only
// the tests set it (export_test.go): they check every UNSAT answer
// against the logged clauses by unit propagation.
var newProof func() func(proofStep, []Lit)

// Solver is a CDCL SAT solver; New makes one.
type Solver struct {
	arena    []Lit
	wasted   int         // arena words of deleted clauses
	learnts  []int32     // live learnt clauses, oldest first
	acts     []float64   // activity of learnts[i]
	nClauses int         // original clauses of two or more literals
	watches  [][]watcher // indexed by literal

	vals     []lbool // indexed by literal
	phase    []bool  // saved phases
	levels   []int32
	reasons  []int32 // clause handle, or noReason
	activity []float64
	varInc   float64

	// The decision order of the running call: a binary max-heap by
	// activity over the unassigned variables the call may decide on. It
	// is built at the call's first decision (ordered) from scope, or from
	// every variable when scope is nil; inScope stamps the members of a
	// named scope with scopeEpoch so that backtracking returns only those
	// to the heap.
	heap       []int32
	heapPos    []int32 // -1 when not in heap
	scope      func() []int32
	ordered    bool
	inScope    []uint32
	scopeEpoch uint32

	trail    []Lit
	trailLim []int32
	qhead    int

	seen   []bool
	unsat  bool
	claInc float64

	// Scratch reused by AddClause, analyze and the proof log.
	add, learnt, logged []Lit
	toClear             []int32

	proof       func(proofStep, []Lit)
	compactions int // for the tests

	// Stats
	Conflicts, Decisions, Propagations int64
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{varInc: 1, claInc: 1}
	if newProof != nil {
		s.proof = newProof()
	}
	return s
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.levels) }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.levels)
	s.vals = append(s.vals, lUndef, lUndef)
	s.phase = append(s.phase, false)
	s.levels = append(s.levels, 0)
	s.reasons = append(s.reasons, noReason)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.heapPos = append(s.heapPos, -1)
	s.inScope = append(s.inScope, 0)
	s.watches = append(s.watches, nil, nil)
	return v
}

// AddClause adds a clause. It returns false when the formula is already
// unsatisfiable at the root level. Must be called before Solve at decision
// level 0.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.proof != nil {
		// A copy, so that lits does not escape.
		s.logged = append(s.logged[:0], lits...)
		s.proof(proofInput, s.logged)
	}
	if s.unsat {
		return false
	}
	// Normalize: drop duplicates and false literals, detect tautologies
	// and satisfied clauses.
	out := s.add[:0]
	for _, l := range lits {
		switch s.vals[l] {
		case lTrue:
			return true
		case lFalse:
			continue
		}
		dup := false
		for _, o := range out {
			if o == l {
				dup = true
				break
			}
			if o == l.Not() {
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.add = out
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		s.assign(out[0], noReason) // unassigned, as every literal of out
		s.unsat = s.propagate() != noReason
		return !s.unsat
	}
	s.newClause(out, false)
	return true
}

// newClause stores lits in the arena and watches its first two.
func (s *Solver) newClause(lits []Lit, learnt bool) int32 {
	c := int32(len(s.arena))
	hdr, act := Lit(len(lits))<<hdrShift, Lit(0)
	if learnt {
		hdr |= hdrLearnt
		act = Lit(len(s.learnts))
		s.learnts = append(s.learnts, c)
		s.acts = append(s.acts, s.claInc)
	} else {
		s.nClauses++
	}
	s.arena = append(s.arena, hdr, act)
	s.arena = append(s.arena, lits...)
	w0, w1 := watcher{c, lits[1]}, watcher{c, lits[0]}
	if len(lits) == 2 {
		w0.c, w1.c = ^c, ^c
	}
	s.watches[lits[0].Not()] = append(s.watches[lits[0].Not()], w0)
	s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], w1)
	return c
}

// lits returns the literals of clause c.
func (s *Solver) lits(c int32) []Lit {
	n := int32(s.arena[c] >> hdrShift)
	return s.arena[c+clauseHead : c+clauseHead+n]
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

// assign makes the unassigned literal l true.
func (s *Solver) assign(l Lit, from int32) {
	v := l.Var()
	s.vals[l], s.vals[l^1] = lTrue, lFalse
	s.phase[v] = !l.Neg()
	s.levels[v] = s.decisionLevel()
	s.reasons[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation, returning a conflicting clause or
// noReason.
func (s *Solver) propagate() int32 {
	vals, arena := s.vals, s.arena // neither grows here
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		falseLit := p.Not()
		ws := s.watches[p]
		confl, i, j := int32(noReason), 0, 0
	nextWatcher:
		for ; i < len(ws); i++ {
			w := ws[i]
			if vals[w.blocker] == lTrue {
				ws[j] = w
				j++
				continue
			}
			if w.c < 0 {
				// Binary: the other literal is implied, or false.
				ws[j] = w
				j++
				if vals[w.blocker] == lUndef {
					s.assign(w.blocker, ^w.c)
					continue
				}
				// analyze reads the conflict as the swap below leaves it.
				confl = ^w.c
				arena[confl+clauseHead], arena[confl+clauseHead+1] = w.blocker, falseLit
				break
			}
			c := w.c
			hdr := arena[c]
			if hdr&hdrDeleted != 0 {
				continue
			}
			lits := arena[c+clauseHead : c+clauseHead+int32(hdr>>hdrShift)]
			// Make sure the false literal is lits[1].
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if vals[lits[0]] == lTrue {
				ws[j] = watcher{c, lits[0]}
				j++
				continue
			}
			// Find a new watch.
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					s.watches[lits[1].Not()] = append(s.watches[lits[1].Not()], watcher{c, lits[0]})
					continue nextWatcher
				}
			}
			// Unit or conflicting.
			ws[j] = watcher{c, lits[0]}
			j++
			if vals[lits[0]] == lUndef {
				s.assign(lits[0], c)
				continue
			}
			confl = c
			break
		}
		if confl != noReason {
			// Keep the watchers not visited.
			s.watches[p] = ws[:j+copy(ws[j:], ws[i+1:])]
			s.qhead = len(s.trail)
			return confl
		}
		if j < len(ws) {
			s.watches[p] = ws[:j]
		}
	}
	return noReason
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level. The clause
// is scratch, valid until the next call.
func (s *Solver) analyze(confl int32) ([]Lit, int32) {
	learnt := append(s.learnt[:0], 0) // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	toClear := s.toClear[:0]

	for {
		s.claBump(confl)
		for _, q := range s.lits(confl) {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.levels[v] > 0 {
				s.seen[v] = true
				toClear = append(toClear, int32(v))
				s.varBump(v)
				if s.levels[v] == s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		// Pick the next literal on the trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		counter--
		s.seen[p.Var()] = false
		if counter == 0 {
			break
		}
		confl = s.reasons[p.Var()]
	}
	learnt[0] = p.Not()

	// Conflict-clause minimization (local): drop literals implied by the
	// rest of the clause through their reason.
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		r := s.reasons[v]
		if r == noReason {
			learnt[j] = learnt[i]
			j++
			continue
		}
		redundant := true
		for _, q := range s.lits(r) {
			if q.Var() == v {
				continue
			}
			if !s.seen[q.Var()] && s.levels[q.Var()] > 0 {
				redundant = false
				break
			}
		}
		if !redundant {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	// Backtrack level: the second-highest level in the clause.
	bt := int32(0)
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.levels[learnt[i].Var()] > s.levels[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.levels[learnt[1].Var()]
	}
	for _, v := range toClear {
		s.seen[v] = false
	}
	s.learnt, s.toClear = learnt, toClear
	return learnt, bt
}

func (s *Solver) backtrackTo(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		l := s.trail[i]
		v := l.Var()
		s.vals[l], s.vals[l^1] = lUndef, lUndef
		s.reasons[v] = noReason
		// Back to the heap, if the running call may decide on v.
		if s.ordered && s.heapPos[v] < 0 && (s.scope == nil || s.inScope[v] == s.scopeEpoch) {
			s.heapInsert(int32(v))
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

func (s *Solver) varBump(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	if s.ordered && s.heapPos[v] >= 0 {
		s.heapUp(s.heapPos[v])
	}
}

func (s *Solver) claBump(c int32) {
	if s.arena[c]&hdrLearnt == 0 {
		return
	}
	i := s.arena[c+1]
	s.acts[i] += s.claInc
	if s.acts[i] > 1e20 {
		for k := range s.acts {
			s.acts[k] *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

// refuted logs an UNSAT answer, the clause of the negated assumptions,
// and returns it.
func (s *Solver) refuted(assumptions []Lit) (sat, decided bool) {
	if s.proof != nil {
		s.logged = s.logged[:0]
		for _, a := range assumptions {
			s.logged = append(s.logged, a.Not())
		}
		s.proof(proofUnsat, s.logged)
	}
	return false, true
}

// Solve searches for a satisfying assignment under the given assumptions.
func (s *Solver) Solve(assumptions ...Lit) bool {
	sat, _ := s.solve(1<<62, nil, assumptions)
	return sat
}

// SolveLimited is Solve under a conflict budget: decided reports whether
// the search finished; when false the budget ran out and sat is
// meaningless.
func (s *Solver) SolveLimited(budget int64, assumptions ...Lit) (sat, decided bool) {
	return s.solve(budget, nil, assumptions)
}

// SolveWithin is SolveLimited with decisions restricted to the variables
// scope returns: the search answers SAT as soon as all of them are
// assigned and propagation has found no conflict, whatever else is
// unassigned. Value is then meaningful for the scope's variables only.
// UNSAT answers need no argument (they are derived from the clauses as
// ever); a SAT answer is right when the scope contains the assumptions'
// variables and is closed in this sense: every assignment of the scope
// that falsifies no clause written over scope variables alone extends
// to a model of all original clauses. The Tseitin encoding of a circuit
// cone closed under fanin is such a set. Its gates' clauses mention only
// cone variables, so at the answer — where propagation has completed and
// therefore no clause is falsified — every gate variable of the cone
// holds the AND of its fanins; the gates outside the cone are functions
// of the inputs, so evaluating them on the cone's inputs and any values
// of the other inputs satisfies their clauses too, and does not disturb
// the cone, which reads no gate outside itself. Learnt clauses are
// implied by the original ones and hold in that model as well.
//
// scope is called at most once, at the call's first decision, and not at
// all when propagating the assumptions already decides the call — on a
// SAT sweep that is most calls. The slice is read before the call
// returns and not kept.
func (s *Solver) SolveWithin(budget int64, scope func() []int32, assumptions ...Lit) (sat, decided bool) {
	return s.solve(budget, scope, assumptions)
}

func (s *Solver) solve(budget int64, scope func() []int32, assumptions []Lit) (sat, decided bool) {
	if s.unsat {
		return s.refuted(nil)
	}
	s.scope = scope
	defer func() {
		s.scope, s.ordered = nil, false // the final backtrack refills no heap
		s.backtrackTo(0)
	}()

	start := s.Conflicts
	restarts := 0
	for {
		limit := int64(100) * int64(luby(restarts))
		if rem := budget - (s.Conflicts - start); rem <= 0 {
			return false, false
		} else if limit > rem {
			limit = rem
		}
		switch s.search(limit, assumptions) {
		case lTrue:
			return true, true
		case lFalse:
			return s.refuted(assumptions)
		}
		restarts++
	}
}

// search runs CDCL until a result or conflict budget exhaustion (lUndef).
func (s *Solver) search(conflictBudget int64, assumptions []Lit) lbool {
	conflicts := int64(0)
	for {
		confl := s.propagate()
		if confl != noReason {
			s.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return lFalse
			}
			learnt, bt := s.analyze(confl)
			s.backtrackTo(bt)
			if s.proof != nil {
				s.proof(proofLearnt, learnt)
			}
			from := int32(noReason)
			if len(learnt) > 1 {
				from = s.newClause(learnt, true)
			}
			s.assign(learnt[0], from) // unassigned: its level was above bt
			s.varInc /= 0.95
			s.claInc /= 0.999
			if len(s.learnts) > 4000+s.nClauses {
				s.reduceDB()
			}
			continue
		}
		if conflicts >= conflictBudget {
			s.backtrackTo(int32(min(len(assumptions), int(s.decisionLevel()))))
			return lUndef
		}
		// Apply assumptions, then decide.
		var next Lit = -1
		for int(s.decisionLevel()) < len(assumptions) {
			p := assumptions[s.decisionLevel()]
			switch s.vals[p] {
			case lTrue:
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
			case lFalse:
				return lFalse
			default:
				next = p
			}
			if next != -1 {
				break
			}
		}
		if next == -1 {
			if !s.ordered {
				s.buildOrder()
			}
			v := s.pickBranchVar()
			if v < 0 {
				return lTrue // every variable the call decides on is assigned
			}
			next = MkLit(int(v), !s.phase[v])
			s.Decisions++
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.assign(next, noReason)
	}
}

// buildOrder makes the heap the running call's decision order: the
// unassigned variables of its scope, or all of them.
func (s *Solver) buildOrder() {
	for _, v := range s.heap {
		s.heapPos[v] = -1
	}
	s.heap = s.heap[:0]
	s.ordered = true
	push := func(v int32) {
		if s.vals[2*v] == lUndef {
			s.heapPos[v] = int32(len(s.heap))
			s.heap = append(s.heap, v)
		}
	}
	if s.scope == nil {
		for v := range s.levels {
			push(int32(v))
		}
	} else {
		s.scopeEpoch++
		for _, v := range s.scope() {
			if s.inScope[v] != s.scopeEpoch {
				s.inScope[v] = s.scopeEpoch
				push(v)
			}
		}
	}
	for i := int32(len(s.heap))/2 - 1; i >= 0; i-- {
		s.heapDown(i)
	}
}

func (s *Solver) pickBranchVar() int32 {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.vals[2*v] == lUndef {
			return v
		}
	}
	return -1
}

// reduceDB removes the learnt clauses whose activity is below the mean,
// except the reasons of current assignments and clauses of at most two
// literals. That need not be half of them: the share depends on how the
// activity is spread. A removed clause stays in the arena, marked, until
// marked clauses are more than half of it; then the arena is compacted.
func (s *Solver) reduceDB() {
	lim := 0.0 // the mean activity; reduceDB runs with 4000 learnts or more
	for _, a := range s.acts {
		lim += a
	}
	lim /= float64(len(s.acts))
	n := 0
	for i, c := range s.learnts {
		lits := s.lits(c)
		locked := false
		for _, l := range lits {
			if s.reasons[l.Var()] == c && s.vals[l] != lUndef {
				locked = true
				break
			}
		}
		if locked || len(lits) <= 2 || s.acts[i] >= lim {
			s.learnts[n], s.acts[n] = c, s.acts[i]
			s.arena[c+1] = Lit(n)
			n++
		} else {
			s.arena[c] |= hdrDeleted
			s.wasted += clauseHead + len(lits)
		}
	}
	s.learnts, s.acts = s.learnts[:n], s.acts[:n]
	if 2*s.wasted > len(s.arena) {
		s.compact()
	}
}

// compact slides the live clauses to the front of the arena, in order,
// and moves every handle with them. The watchers of removed clauses go;
// every watch list keeps the order of the rest, so the search cannot
// tell a compaction happened.
func (s *Solver) compact() {
	// Each live clause's new handle goes to its activity word, and every
	// handle is mapped through it before anything moves.
	s.eachLive(func(c, _, to int32) { s.arena[c+1] = Lit(to) })
	for l, ws := range s.watches {
		j := 0
		for _, w := range ws {
			tag := w.c >> 31 // -1 for a binary clause's watcher, else 0
			if c := w.c ^ tag; s.arena[c]&hdrDeleted == 0 {
				ws[j] = watcher{int32(s.arena[c+1]) ^ tag, w.blocker}
				j++
			}
		}
		s.watches[l] = ws[:j]
	}
	for v, r := range s.reasons {
		if r != noReason {
			s.reasons[v] = int32(s.arena[r+1])
		}
	}
	// learnts is in arena order, as clauses are made and removed in order.
	k := 0
	s.arena = s.arena[:s.eachLive(func(c, size, to int32) {
		copy(s.arena[to:], s.arena[c:c+size])
		s.arena[to+1] = 0
		if s.arena[to]&hdrLearnt != 0 {
			s.learnts[k], s.arena[to+1] = to, Lit(k)
			k++
		}
	})]
	s.wasted = 0
	s.compactions++
}

// eachLive calls f on every clause not deleted, in arena order, with its
// size in words and the handle it has after a compaction, and returns the
// live words.
func (s *Solver) eachLive(f func(c, size, to int32)) int32 {
	to := int32(0)
	for c := int32(0); c < int32(len(s.arena)); {
		size := clauseHead + int32(s.arena[c]>>hdrShift)
		if s.arena[c]&hdrDeleted == 0 {
			f(c, size, to)
			to += size
		}
		c += size
	}
	return to
}

// Value returns the model value of variable v after a satisfiable Solve
// (after SolveWithin: of a variable of the scope).
func (s *Solver) Value(v int) bool { return s.phase[v] }

// Okay reports whether the solver is still consistent (no root conflict).
func (s *Solver) Okay() bool { return !s.unsat }

// luby computes the Luby restart sequence 1,1,2,1,1,2,4,...
func luby(i int) int {
	// Find the finite subsequence containing index i.
	for k := 1; ; k++ {
		if i+1 == 1<<k-1 {
			return 1 << (k - 1)
		}
		if i+1 < 1<<k-1 {
			return luby(i + 1 - (1<<(k-1) - 1) - 1)
		}
	}
}

// --- activity heap -----------------------------------------------------

func (s *Solver) heapInsert(v int32) {
	s.heapPos[v] = int32(len(s.heap))
	s.heap = append(s.heap, v)
	s.heapUp(s.heapPos[v])
}

func (s *Solver) heapPop() int32 {
	top := s.heap[0]
	last := s.heap[len(s.heap)-1]
	s.heap = s.heap[:len(s.heap)-1]
	s.heapPos[top] = -1
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.heapPos[last] = 0
		s.heapDown(0)
	}
	return top
}

func (s *Solver) heapUp(i int32) {
	v := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !(s.activity[v] > s.activity[s.heap[parent]]) {
			break
		}
		s.heap[i] = s.heap[parent]
		s.heapPos[s.heap[i]] = i
		i = parent
	}
	s.heap[i] = v
	s.heapPos[v] = i
}

func (s *Solver) heapDown(i int32) {
	heap, pos, act := s.heap, s.heapPos, s.activity
	v := heap[i]
	n := int32(len(heap))
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && act[heap[right]] > act[heap[left]] {
			child = right
		}
		if !(act[heap[child]] > act[v]) {
			break
		}
		heap[i] = heap[child]
		pos[heap[i]] = i
		i = child
	}
	heap[i] = v
	pos[v] = i
}
