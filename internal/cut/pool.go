package cut

import "math/bits"

// Pool is a per-worker store of cut-set storage. Entry storage is carved
// off the front of the pool's current chunk, a few thousand cuts long, as
// chunk[:n:n], so a cold sweep allocates once per chunk, not once per set.
// Steady-state enumeration recycles entry slices in place, so a warm pool
// lets EnsureP/RefreshP run without heap allocation: the merge scratch is
// reused across nodes, grown entry slices come from the free lists, and
// storage shed by shrinking or dying entries goes back onto them — a dying
// entry being a dead node's, recomputed as empty or given up by Release
// when the commit that deleted the node finishes. Share hands the free
// storage of one pool to others.
//
// A Pool is single-threaded state: each worker slot owns one (see
// engine.Env.CutPools) and hands it to every manager call it makes. A nil
// *Pool is always legal and falls back to plain allocation.
type Pool struct {
	scratch []Cut
	// free[b] holds slices of capacity b+1, the last list every capacity
	// from freeLists up; bit b of full is set while free[b] is not empty.
	free   [freeLists][][]Cut
	full   uint64
	chunk  []Cut // what is left of the current chunk
	merges int   // cut sets merged through this pool, for the publish-protocol tests
}

// freeLists is the number of free lists: one per capacity from 1 to 63
// cuts, which covers every set under the default limits (at most
// DefaultCutLimit(4)+1 = 55 cuts), and one for 64 and up.
const freeLists = 64

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

// chunkCuts is the length of one storage chunk: 192 KiB of 48-byte cuts.
// A set that does not fit in what is left of a chunk starts a new one,
// so less than a set's worth (DefaultCutLimit(4)+1 cuts) of each
// chunk goes unused.
const chunkCuts = 4096

// list is the free list of slices of capacity c.
func list(c int) int { return min(c, freeLists) - 1 }

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

// poolGet returns a slice of length n (n >= 1): the last slice of the
// shortest non-empty free list whose slices hold n, found in one bit scan,
// or else carved from the current chunk.
func poolGet(p *Pool, n int) []Cut {
	if p == nil {
		return make([]Cut, n)
	}
	b := uint(list(n))
	if fit := p.full >> b << b; fit != 0 {
		b = uint(bits.TrailingZeros64(fit))
		l := p.free[b]
		// Only the last list can hold a slice shorter than n.
		if s := l[len(l)-1]; cap(s) >= n {
			l[len(l)-1] = nil
			if p.free[b] = l[:len(l)-1]; len(l) == 1 {
				p.full &^= 1 << b
			}
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

// poolPut donates storage to the free lists.
func poolPut(p *Pool, s []Cut) {
	if p == nil || cap(s) == 0 {
		return
	}
	b := list(cap(s))
	p.free[b] = append(p.free[b], s[:0])
	p.full |= 1 << uint(b)
}

// Share moves every free slice of from to the pools of to, dealt in turn,
// and leaves from's free lists empty; chunks and scratch stay where they
// are. It hands the storage one worker's commits gave up to the workers of
// the next sweep, and like every pool operation it must not overlap a
// call that uses any of the pools.
func Share(from *Pool, to []*Pool) {
	if from == nil || len(to) == 0 {
		return
	}
	k := 0
	for b := range from.free {
		for _, s := range from.free[b] {
			poolPut(to[k], s)
			k = (k + 1) % len(to)
		}
		clear(from.free[b])
		from.free[b] = from.free[b][:0]
	}
	from.full = 0
}
