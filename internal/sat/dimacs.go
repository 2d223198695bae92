package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseDIMACS loads a CNF in DIMACS format into a fresh solver with the
// declared number of variables, and returns it with that number. A
// formula found unsatisfiable while its clauses are added is not an
// error: the solver's Okay reports it, and Solve answers UNSAT. A
// declared count above 2^30 or a literal above the declared count is.
func ParseDIMACS(r io.Reader) (*Solver, int, error) { return parseDIMACS(r, 1<<30) }

// parseDIMACS is ParseDIMACS with at most limit variables (2^30 is what
// a Lit can name).
func parseDIMACS(r io.Reader, limit int) (*Solver, int, error) {
	s := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	declaredVars := -1
	var clause []Lit
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, 0, fmt.Errorf("dimacs: bad problem line %q", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 || n > limit {
				return nil, 0, fmt.Errorf("dimacs: variable count %q is not in 0..%d", fields[2], limit)
			}
			declaredVars = n
			for s.NumVars() < n {
				s.NewVar()
			}
			continue
		}
		if declaredVars < 0 {
			return nil, 0, fmt.Errorf("dimacs: clause before problem line: %q", line)
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil {
				return nil, 0, fmt.Errorf("dimacs: bad literal %q: %w", tok, err)
			}
			if n == 0 {
				s.AddClause(clause...)
				clause = clause[:0]
				continue
			}
			if n < -declaredVars || n > declaredVars {
				return nil, 0, fmt.Errorf("dimacs: literal %d names no declared variable (%d declared)", n, declaredVars)
			}
			clause = append(clause, MkLit(max(n, -n)-1, n < 0))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if len(clause) > 0 {
		s.AddClause(clause...)
	}
	return s, max(declaredVars, 0), nil
}

// WriteDIMACSModel prints a model in the conventional "v" line format.
func WriteDIMACSModel(w io.Writer, s *Solver, numVars int) {
	fmt.Fprint(w, "v")
	for v := 0; v < numVars && v < s.NumVars(); v++ {
		if s.Value(v) {
			fmt.Fprintf(w, " %d", v+1)
		} else {
			fmt.Fprintf(w, " -%d", v+1)
		}
	}
	fmt.Fprintln(w, " 0")
}
