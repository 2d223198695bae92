package cut

import (
	"sync"

	"dacpara/internal/aig"
)

// cacheKey identifies one persistent manager: the graph instance plus the
// resolved enumeration parameters. Two flow steps with the same width and
// budget share cut sets; a step that changes either gets its own manager.
type cacheKey struct {
	graph   *aig.AIG
	k       int
	maxCuts int
}

// Cache hands out persistent cut managers across engine passes and flow
// steps — the alternative to re-enumerating every node's cuts from
// scratch on each pass. Managers are keyed by (graph pointer, resolved
// params); reusing one across passes is safe because every entry is
// revalidated per epoch against the node version counters, the current
// fanin literals and the fanin sets' content generations (see
// Manager.NextEpoch), so stored sets are returned only when they are
// bit-identical to what a cold re-enumeration would produce.
//
// A graph that is rebuilt (balance, fraig, guard scratch clones) arrives
// under a new pointer and simply misses. The old graph's managers can
// never hit again, yet each pins its whole network; whoever retires a
// graph calls Drop for it.
type Cache struct {
	mu sync.Mutex
	m  map[cacheKey]*Manager
}

// NewCache creates an empty manager cache.
func NewCache() *Cache { return &Cache{m: map[cacheKey]*Manager{}} }

// Manager returns the persistent manager for the graph under the given
// parameters, creating it on first use.
func (c *Cache) Manager(a *aig.AIG, params Params) *Manager {
	key := cacheKey{a, params.k(), params.maxCuts()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.m[key]; ok {
		return m
	}
	m := NewManager(a, params)
	c.m[key] = m
	return m
}

// Drop forgets every manager of the graph, releasing the cut sets and the
// network they hold. A nil cache drops nothing.
func (c *Cache) Drop(a *aig.AIG) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.m {
		if key.graph == a {
			delete(c.m, key)
		}
	}
}
