package cec

import (
	"strings"
	"testing"

	"dacpara/internal/aig"
)

// A counterexample that does not make the named output differ on the two
// networks is the checker's own fault and must surface as an error.
func TestReplayRejectsAFalseCounterexample(t *testing.T) {
	mk := func(or bool) *aig.AIG {
		a := aig.New()
		x, y := a.AddPI(), a.AddPI()
		a.AddPO(x)
		if or {
			a.AddPO(a.Or(x, y))
		} else {
			a.AddPO(a.And(x, y))
		}
		return a
	}
	a, b := mk(false), mk(true)
	if err := replay(a, b, 1, []bool{true, false}); err != nil {
		t.Fatalf("x=1, y=0 tells AND from OR: %v", err)
	}
	for _, c := range []struct {
		k  int
		in []bool
	}{{1, []bool{true, true}}, {1, []bool{false, false}}, {0, []bool{true, false}}} {
		err := replay(a, b, c.k, c.in)
		if err == nil || !strings.Contains(err.Error(), "internal inconsistency") {
			t.Errorf("output %d on %v does not differ, replay said %v", c.k, c.in, err)
		}
	}
}
