package serve

import (
	"container/list"
	"sync"

	"dacpara"
	"dacpara/internal/aig"
)

// CachedResult is one completed engine run held by the result cache:
// everything needed to serve a repeated identical submission without
// recomputing — the output network in binary AIGER form, the run
// statistics, and the metrics snapshot.
type CachedResult struct {
	// AIGER is the optimized network, binary AIGER encoded.
	AIGER []byte
	// Output is the optimized network's statistics.
	Output aig.Stats
	// Result is the engine run record.
	Result dacpara.Result
	// Metrics is the run's dacpara-metrics/v1 snapshot.
	Metrics *dacpara.MetricsSnapshot
	// Verify is the verdict of the run's equivalence check, nil when no
	// job has verified this result yet (see Service.serveHit).
	Verify *dacpara.Verdict
}

func (r *CachedResult) size() int64 {
	// The AIGER bytes dominate; the fixed-size records ride along as a
	// flat estimate so thousands of tiny entries still count.
	return int64(len(r.AIGER)) + 1024
}

// resultCache is an LRU over cache keys (dacpara.Job.Key), bounded both
// by entry count and total bytes.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	ll         *list.List // front = most recently used
	items      map[string]*list.Element
	hits       int64
	misses     int64
}

type cacheItem struct {
	key string
	res *CachedResult
}

func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	return &resultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
	}
}

func (c *resultCache) get(key string) (*CachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).res, true
}

func (c *resultCache) put(key string, res *CachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		old := el.Value.(*cacheItem)
		c.bytes += res.size() - old.res.size()
		old.res = res
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheItem{key: key, res: res})
		c.bytes += res.size()
	}
	for c.ll.Len() > 0 &&
		((c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes && c.ll.Len() > 1)) {
		el := c.ll.Back()
		it := el.Value.(*cacheItem)
		c.ll.Remove(el)
		delete(c.items, it.key)
		c.bytes -= it.res.size()
	}
}

// stats returns a consistent snapshot of the cache counters.
func (c *resultCache) stats() (entries int, bytes, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.bytes, c.hits, c.misses
}
