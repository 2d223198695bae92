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

func boolToLbool(b bool) lbool {
	if b {
		return lTrue
	}
	return lFalse
}

type clause struct {
	lits    []Lit
	learnt  bool
	act     float64
	deleted bool
}

type watcher struct {
	c       *clause
	blocker Lit
}

// Solver is a CDCL SAT solver. The zero value is ready to use.
type Solver struct {
	clauses []*clause
	learnts []*clause
	watches [][]watcher // indexed by literal

	assigns  []lbool
	phase    []bool // saved phases
	levels   []int32
	reasons  []*clause
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

	seen     []bool
	unsat    bool
	claInc   float64
	conflNum int64

	// Stats
	Conflicts, Decisions, Propagations int64
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{varInc: 1, claInc: 1}
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assigns) }

// NewVar allocates a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assigns)
	s.assigns = append(s.assigns, lUndef)
	s.phase = append(s.phase, false)
	s.levels = append(s.levels, 0)
	s.reasons = append(s.reasons, nil)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, false)
	s.heapPos = append(s.heapPos, -1)
	s.inScope = append(s.inScope, 0)
	s.watches = append(s.watches, nil, nil)
	return v
}

func (s *Solver) value(l Lit) lbool {
	v := s.assigns[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.Neg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

// AddClause adds a clause. It returns false when the formula is already
// unsatisfiable at the root level. Must be called before Solve at decision
// level 0.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	// Normalize: sort, drop duplicates and false literals, detect
	// tautologies and satisfied clauses.
	out := lits[:0:0]
	for _, l := range lits {
		switch s.value(l) {
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
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueue(out[0], nil) {
			s.unsat = true
			return false
		}
		if s.propagate() != nil {
			s.unsat = true
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *Solver) watch(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], watcher{c, c.lits[1]})
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, c.lits[0]})
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.value(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	s.assigns[v] = boolToLbool(!l.Neg())
	s.phase[v] = !l.Neg()
	s.levels[v] = s.decisionLevel()
	s.reasons[v] = from
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation, returning a conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Propagations++
		ws := s.watches[p]
		j := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			c := w.c
			if c.deleted {
				continue
			}
			// Make sure the false literal is lits[1].
			falseLit := p.Not()
			if c.lits[0] == falseLit {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.value(c.lits[0]) == lTrue {
				ws[j] = watcher{c, c.lits[0]}
				j++
				continue
			}
			// Find a new watch.
			for k := 2; k < len(c.lits); k++ {
				if s.value(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], watcher{c, c.lits[0]})
					continue nextWatcher
				}
			}
			// Unit or conflicting.
			ws[j] = watcher{c, c.lits[0]}
			j++
			if !s.enqueue(c.lits[0], c) {
				// Conflict: keep remaining watchers.
				copy(ws[j:], ws[i+1:])
				s.watches[p] = ws[:j+len(ws)-(i+1)]
				s.qhead = len(s.trail)
				return c
			}
		}
		s.watches[p] = ws[:j]
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learnt
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int32) {
	learnt := []Lit{0} // slot for the asserting literal
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	var toClear []int

	for {
		s.claBump(confl)
		for _, q := range confl.lits {
			if p != -1 && q == p {
				continue
			}
			v := q.Var()
			if !s.seen[v] && s.levels[v] > 0 {
				s.seen[v] = true
				toClear = append(toClear, v)
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
		if r == nil {
			learnt[j] = learnt[i]
			j++
			continue
		}
		redundant := true
		for _, q := range r.lits {
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
	return learnt, bt
}

func (s *Solver) backtrackTo(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		v := s.trail[i].Var()
		s.assigns[v] = lUndef
		s.reasons[v] = nil
		if s.ordered && s.heapPos[v] < 0 && s.decidable(v) {
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

func (s *Solver) claBump(c *clause) {
	if !c.learnt {
		return
	}
	c.act += s.claInc
	if c.act > 1e20 {
		for _, l := range s.learnts {
			l.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
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
		return false, true
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
			return false, true
		}
		restarts++
	}
}

// search runs CDCL until a result or conflict budget exhaustion (lUndef).
func (s *Solver) search(conflictBudget int64, assumptions []Lit) lbool {
	conflicts := int64(0)
	for {
		confl := s.propagate()
		if confl != nil {
			s.Conflicts++
			conflicts++
			if s.decisionLevel() == 0 {
				s.unsat = true
				return lFalse
			}
			learnt, bt := s.analyze(confl)
			s.backtrackTo(bt)
			if len(learnt) == 1 {
				if !s.enqueue(learnt[0], nil) {
					s.unsat = true
					return lFalse
				}
			} else {
				c := &clause{lits: learnt, learnt: true, act: s.claInc}
				s.learnts = append(s.learnts, c)
				s.watch(c)
				if !s.enqueue(learnt[0], c) {
					s.unsat = true
					return lFalse
				}
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if len(s.learnts) > 4000+len(s.clauses) {
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
			switch s.value(p) {
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
		s.enqueue(next, nil)
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
		if s.assigns[v] == lUndef {
			s.heapPos[v] = int32(len(s.heap))
			s.heap = append(s.heap, v)
		}
	}
	if s.scope == nil {
		for v := range s.assigns {
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

// decidable reports whether the running call may decide on v.
func (s *Solver) decidable(v int) bool {
	return s.scope == nil || s.inScope[v] == s.scopeEpoch
}

func (s *Solver) pickBranchVar() int32 {
	for len(s.heap) > 0 {
		v := s.heapPop()
		if s.assigns[v] == lUndef {
			return v
		}
	}
	return -1
}

// reduceDB removes the learnt clauses whose activity is below the mean,
// except the reasons of current assignments and clauses of at most two
// literals. That need not be half of them: the share depends on how the
// activity is spread.
func (s *Solver) reduceDB() {
	lim := meanAct(s.learnts)
	keep := s.learnts[:0]
	for _, c := range s.learnts {
		locked := false
		for _, l := range c.lits {
			if s.reasons[l.Var()] == c && s.assigns[l.Var()] != lUndef {
				locked = true
				break
			}
		}
		if locked || len(c.lits) <= 2 || c.act >= lim {
			keep = append(keep, c)
		} else {
			c.deleted = true
		}
	}
	s.learnts = keep
}

func meanAct(cs []*clause) float64 {
	if len(cs) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cs {
		sum += c.act
	}
	return sum / float64(len(cs))
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

func (s *Solver) heapLess(a, b int32) bool { return s.activity[a] > s.activity[b] }

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
		if !s.heapLess(v, s.heap[parent]) {
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
	v := s.heap[i]
	n := int32(len(s.heap))
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && s.heapLess(s.heap[right], s.heap[left]) {
			child = right
		}
		if !s.heapLess(s.heap[child], v) {
			break
		}
		s.heap[i] = s.heap[child]
		s.heapPos[s.heap[i]] = i
		i = child
	}
	s.heap[i] = v
	s.heapPos[v] = i
}
