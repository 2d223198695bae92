package cut

import (
	"testing"

	"dacpara/internal/aig"
)

func TestCacheDrop(t *testing.T) {
	a, b := aig.New(), aig.New()
	c := NewCache()
	m4 := c.Manager(a, Params{K: 4})
	c.Manager(a, Params{K: 5})
	mb := c.Manager(b, Params{K: 4})
	c.Drop(a)
	if len(c.m) != 1 || c.Manager(b, Params{K: 4}) != mb {
		t.Fatalf("%d managers after dropping one of two graphs, want the other graph's one", len(c.m))
	}
	if c.Manager(a, Params{K: 4}) == m4 {
		t.Fatal("a dropped graph got its old manager back")
	}
	c.Drop(aig.New()) // unknown graph: nothing to do
	(*Cache)(nil).Drop(a)
	if len(c.m) != 2 {
		t.Fatalf("%d managers, want 2", len(c.m))
	}
}
