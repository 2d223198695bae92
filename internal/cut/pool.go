package cut

// Pool is a per-worker store of cut-set storage. Entry storage is carved
// off the front of the pool's current chunk, a few thousand cuts long, as
// chunk[:n:n], so a cold sweep allocates once per chunk, not once per set.
// Steady-state enumeration recycles entry slices in place, so a warm pool
// lets EnsureP/RefreshP run without heap allocation: the merge scratch is
// reused across nodes, grown entry slices come from the free list, and
// storage shed by shrinking or dying entries goes back onto it.
//
// A Pool is single-threaded state: each worker slot owns one (see
// engine.Env.CutPools) and hands it to every manager call it makes. A nil
// *Pool is always legal and falls back to plain allocation.
type Pool struct {
	scratch []Cut
	free    [][]Cut
	chunk   []Cut // what is left of the current chunk
	merges  int   // cut sets merged through this pool, for the publish-protocol tests
}

// NewPool creates an empty pool.
func NewPool() *Pool { return &Pool{} }

// NewPools creates n independent pools, one per worker slot.
func NewPools(n int) []*Pool {
	ps := make([]*Pool, n)
	for i := range ps {
		ps[i] = NewPool()
	}
	return ps
}

// poolMaxFree bounds the free list so a pathological churn of entry
// storage cannot pin unbounded memory in a pool.
const poolMaxFree = 256

// chunkCuts is the length of one storage chunk: 192 KiB of 48-byte cuts.
// A set that does not fit in what is left of a chunk starts a new one,
// so less than a set's worth (DefaultCutLimit(4)+1 cuts) of each
// chunk goes unused.
const chunkCuts = 4096

// scratchFor returns an empty merge-scratch slice with capacity >= n,
// reusing the pool's resident scratch when possible.
func scratchFor(p *Pool, n int) []Cut {
	if p == nil {
		return make([]Cut, 0, n)
	}
	if cap(p.scratch) < n {
		p.scratch = make([]Cut, 0, n)
	}
	return p.scratch[:0]
}

// poolGet returns a slice of length n: recycled from the free list when a
// large-enough slice is there, carved from the current chunk otherwise.
func poolGet(p *Pool, n int) []Cut {
	if p == nil {
		return make([]Cut, n)
	}
	f := p.free
	for i := len(f) - 1; i >= 0; i-- {
		if cap(f[i]) >= n {
			s := f[i]
			f[i] = f[len(f)-1]
			p.free = f[:len(f)-1]
			return s[:n]
		}
	}
	if len(p.chunk) < n {
		p.chunk = make([]Cut, max(n, chunkCuts))
	}
	s := p.chunk[:n:n]
	p.chunk = p.chunk[n:]
	return s
}

// poolPut donates storage to the free list.
func poolPut(p *Pool, s []Cut) {
	if p == nil || cap(s) == 0 || len(p.free) >= poolMaxFree {
		return
	}
	p.free = append(p.free, s[:0])
}
