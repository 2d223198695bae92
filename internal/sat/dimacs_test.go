package sat

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestParseDIMACSSat(t *testing.T) {
	in := `c a simple satisfiable formula
p cnf 3 3
1 2 0
-1 3 0
-2 -3 0
`
	s, nv, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if nv != 3 {
		t.Fatalf("vars %d", nv)
	}
	if !s.Solve() {
		t.Fatal("satisfiable formula reported unsat")
	}
	// Verify the model against the clauses.
	check := [][]int{{1, 2}, {-1, 3}, {-2, -3}}
	for _, cls := range check {
		ok := false
		for _, l := range cls {
			v := l
			if v < 0 {
				v = -v
			}
			if s.Value(v-1) == (l > 0) {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("model violates clause %v", cls)
		}
	}
	var buf bytes.Buffer
	WriteDIMACSModel(&buf, s, nv)
	if !strings.HasPrefix(buf.String(), "v ") || !strings.HasSuffix(strings.TrimSpace(buf.String()), " 0") {
		t.Fatalf("model line %q", buf.String())
	}
}

func TestParseDIMACSUnsat(t *testing.T) {
	in := "p cnf 1 2\n1 0\n-1 0\n"
	s, _, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Solve() {
		t.Fatal("unsat formula reported sat")
	}
}

func TestParseDIMACSMultiLineClause(t *testing.T) {
	in := "p cnf 4 1\n1 2\n3 4 0\n"
	s, _, err := ParseDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Solve() {
		t.Fatal("wide clause unsat")
	}
}

func TestParseDIMACSErrors(t *testing.T) {
	for _, in := range []string{
		"1 2 0\n",                           // clause before header
		"p cnf x 1\n1 0\n",                  // bad header
		"p dnf 2 1\n1 0\n",                  // wrong format tag
		"p cnf 2 1\n1 frog 0\n",             // bad literal
		"p cnf 3000000000 1\n1 0\n",         // more variables than a Lit names
		"p cnf -2 1\n1 0\n",                 // negative count
		"p cnf 2 1\n3 0\n",                  // literal above the declared count
		"p cnf 2 1\n-3 0\n",                 // the same, negative
		"p cnf 2 1\n1073741825 0\n",         // would overflow MkLit
		"p cnf 2 1\n-9223372036854775808 0", // would overflow its negation
	} {
		if _, _, err := ParseDIMACS(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted %q", in)
		}
	}
}

// FuzzParseDIMACS holds the parser to its contract on any input: it never
// panics, and a formula it accepts is solved to an answer that the
// formula's clauses, read here separately, confirm — a model that
// satisfies each of them, or no assignment at all that does when there
// are few enough variables to try them all — and that solving it again,
// on the same solver or a fresh one, repeats.
func FuzzParseDIMACS(f *testing.F) {
	for _, seed := range []string{
		"p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n",
		"p cnf 1 2\n1 0\n-1 0\n",
		"c comment\np cnf 4 2\n1 2\n3 4 0\n-1 0",
		"p cnf 3 2\n1 -1 2 2 0\n0\n",
		"p cnf 3000000000 1\n1 0\n",
		"p cnf 2 1\n1073741825 0\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, nv, err := parseDIMACS(bytes.NewReader(data), 1<<12)
		if err != nil {
			return
		}
		answer := s.Solve()
		var clauses [][]int
		var c []int
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line == "" || line[0] == 'c' || line[0] == 'p' {
				continue
			}
			for _, tok := range strings.Fields(line) {
				n, _ := strconv.Atoi(tok)
				if n == 0 {
					clauses, c = append(clauses, c), nil
				} else {
					c = append(c, n)
				}
			}
		}
		if len(c) > 0 {
			clauses = append(clauses, c)
		}
		holds := func(value func(v int) bool) bool {
			for _, c := range clauses {
				sat := false
				for _, n := range c {
					sat = sat || value(max(n, -n)-1) == (n > 0)
				}
				if !sat {
					return false
				}
			}
			return true
		}
		if answer && !holds(s.Value) {
			t.Fatalf("the model falsifies a clause of %q", data)
		}
		if !answer && nv <= 10 {
			for m := 0; m < 1<<nv; m++ {
				if holds(func(v int) bool { return m>>v&1 == 1 }) {
					t.Fatalf("UNSAT, but assignment %b satisfies %q", m, data)
				}
			}
		}
		fresh, _, err := parseDIMACS(bytes.NewReader(data), 1<<12)
		if err != nil {
			t.Fatalf("accepted once, then: %v", err)
		}
		if s.Solve() != answer || fresh.Solve() != answer {
			t.Fatalf("solving %q again changed the answer", data)
		}
	})
}
