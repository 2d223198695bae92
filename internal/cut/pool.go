package cut

import (
	"math/bits"
	"slices"
)

// Pool is a per-worker store of cut-set storage. Entry storage is carved
// off the front of the pool's current chunk, a few thousand cuts long, as
// chunk[:n:n], so a cold sweep allocates once per chunk, not once per set.
// Steady-state enumeration recycles entry slices in place, so a warm pool
// lets EnsureP/RefreshP run without heap allocation: the merge scratch and
// the buffers stored sets unpack into are reused across nodes, grown entry
// slices come from the free lists, and storage shed by shrinking or dying
// entries goes back onto them — a dying entry being a dead node's,
// recomputed as empty or given up by Release when the commit that deleted
// the node finishes. Share hands the free storage of one pool to others.
//
// A Pool is single-threaded state: each worker slot owns one (see
// engine.Env.CutPools) and hands it to every manager call it makes, all of
// one cut width. A nil *Pool is always legal and falls back to plain
// allocation.
type Pool struct {
	// bufs are the merge scratch and the buffers stored sets unpack
	// into: a merge's two fanin sets, and the one CutsP reads into.
	bufs [4][]Cut
	// free[b] holds slices of b+1 stored cuts, the last list every length
	// from freeLists up; bit b of full is set while free[b] is not empty.
	free   [freeLists][][]uint32
	full   uint64
	chunk  []uint32 // what is left of the current chunk
	merges int      // cut sets merged through this pool, for the publish-protocol tests
}

// The buffers of Pool.bufs.
const (
	bufScratch = iota
	bufFanin0
	bufFanin1
	bufRead
)

// freeLists is the number of free lists: one per length from 1 to 63
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

// chunkCuts is the number of stored cuts one storage chunk holds: 96 KiB
// at k = 4, 112 at k = 5, 144 at k = 6. A set that does not fit in what
// is left of a chunk starts a new one, so less than a set's worth
// (DefaultCutLimit(4)+1 cuts) of each chunk goes unused.
const chunkCuts = 4096

// list is the free list of slices of c stored cuts.
func list(c int) int { return min(c, freeLists) - 1 }

// buf returns buffer b of the pool emptied, with room for n cuts. A nil
// pool allocates.
func (p *Pool) buf(b, n int) []Cut {
	if p == nil {
		return make([]Cut, 0, n)
	}
	p.bufs[b] = slices.Grow(p.bufs[b][:0], n)
	return p.bufs[b]
}

// mergeBuffers returns a merge's scratch, with room for n cuts, and empty
// buffers with room for n0 and n1 cuts to unpack its fanin sets into. A
// nil pool allocates the three at once.
func (p *Pool) mergeBuffers(n, n0, n1 int) (dst, b0, b1 []Cut) {
	if p == nil {
		all := make([]Cut, 0, n+n0+n1)
		return all[:0:n], all[n : n : n+n0], all[n+n0 : n+n0 : n+n0+n1]
	}
	return p.buf(bufScratch, n), p.buf(bufFanin0, n0), p.buf(bufFanin1, n1)
}

// poolGet returns storage for n stored cuts of stride s (n >= 1): the
// last slice of the shortest non-empty free list whose slices hold n,
// found in one bit scan, or else a slice carved from the current chunk.
func poolGet(p *Pool, n, s int) []uint32 {
	w := n * s
	if p == nil {
		return make([]uint32, w)
	}
	b := uint(list(n))
	if fit := p.full >> b << b; fit != 0 {
		b = uint(bits.TrailingZeros64(fit))
		l := p.free[b]
		// Only the last list can hold a slice shorter than n cuts.
		if st := l[len(l)-1]; cap(st) >= w {
			l[len(l)-1] = nil
			if p.free[b] = l[:len(l)-1]; len(l) == 1 {
				p.full &^= 1 << b
			}
			return st[:w]
		}
	}
	if len(p.chunk) < w {
		p.chunk = make([]uint32, max(n, chunkCuts)*s)
	}
	st := p.chunk[:w:w]
	p.chunk = p.chunk[w:]
	return st
}

// poolPut donates the storage of stored cuts of stride s to the free
// lists.
func poolPut(p *Pool, st []uint32, s int) {
	if p == nil || cap(st) == 0 {
		return
	}
	putList(p, list(cap(st)/s), st[:0])
}

func putList(p *Pool, b int, st []uint32) {
	p.free[b] = append(p.free[b], st)
	p.full |= 1 << uint(b)
}

// Share moves every free slice of from to the pools of to, dealt in turn,
// and leaves from's free lists empty; chunks and buffers stay where they
// are. It hands the storage one worker's commits gave up to the
// workers of the next sweep, and like every pool operation it must not
// overlap a call that uses any of the pools.
func Share(from *Pool, to []*Pool) {
	if from == nil || len(to) == 0 {
		return
	}
	k := 0
	for b := range from.free {
		for _, st := range from.free[b] {
			putList(to[k], b, st)
			k = (k + 1) % len(to)
		}
		clear(from.free[b])
		from.free[b] = from.free[b][:0]
	}
	from.full = 0
}
