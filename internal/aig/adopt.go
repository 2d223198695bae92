package aig

// Adopt replaces a's contents with b's, transferring ownership of b's
// node storage; b must not be used afterwards. An out-of-place rebuild
// (cec.Fraig) uses it to hand its result back under the caller's *AIG
// pointer.
//
// Adopt moves slice headers and atomic values only — no node (and hence
// no lock or atomic counter) is copied by value. It must not run
// concurrently with any other operation on either graph.
func (a *AIG) Adopt(b *AIG) {
	a.pages.Store(b.pages.Load())
	a.used.Store(b.used.Load())
	a.freeMu.Lock()
	a.freeID = b.freeID
	a.freeMu.Unlock()
	a.piMu.Lock()
	a.pis = b.pis
	a.piMu.Unlock()
	a.poMu.Lock()
	a.pos = b.pos
	a.poMu.Unlock()
	a.numAnds.Store(b.numAnds.Load())
	a.levelsDirty.Store(b.levelsDirty.Load())
	a.Name = b.Name
}
