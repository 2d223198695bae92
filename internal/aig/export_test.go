package aig

// HoldMoving leaves node id as restamp leaves it between its two stores:
// holding the sentinel, its next version not drawn yet.
func (a *AIG) HoldMoving(id int32) {
	n := a.node(id)
	n.p.version[n.i].Store(moving)
}
