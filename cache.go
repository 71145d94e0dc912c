package fdb

import (
	"container/list"
	"sync"

	"repro/internal/opt"
)

// planCacheCap is the number of entries the plan cache keeps.
const planCacheCap = 64

// CacheStats is a snapshot of the plan cache counters and the planner's one
// counter (documented on DB.CacheStats).
type CacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int

	BudgetFallbacks uint64
}

// planCache is an LRU map from canonical query fingerprint to compiled
// statement, and from (f-tree, conditions) key to the f-plan Result.Where
// runs. Nothing invalidates an entry; only the LRU evicts. Data writes do
// not stale a statement (it refreshes its inputs from the relations' delta
// chains), and neither do schema changes: the catalogue only grows, Create
// and LoadTSV refuse an existing name, and binding refuses an unknown one,
// so no cached plan can read a relation that enters the catalogue later.
type planCache struct {
	mu           sync.Mutex
	ll           *list.List // front = most recently used
	byKey        map[string]*list.Element
	hits, misses uint64
}

// cacheEntry holds exactly one of stmt and fplan.
type cacheEntry struct {
	key   string
	stmt  *Stmt
	fplan *opt.PlanResult // immutable, shared by every Where that hits it
}

func newPlanCache() *planCache {
	return &planCache{ll: list.New(), byKey: map[string]*list.Element{}}
}

func (c *planCache) get(key string) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return *el.Value.(*cacheEntry), true
	}
	c.misses++
	return cacheEntry{}, false
}

func (c *planCache) put(ce cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[ce.key]; ok {
		el.Value = &ce
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[ce.key] = c.ll.PushFront(&ce)
	for c.ll.Len() > planCacheCap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

// entries returns a copy of the cache's entries, MRU first. SaveSnapshot
// walks it to find memoised encodings worth persisting.
func (c *planCache) entries() []cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, *el.Value.(*cacheEntry))
	}
	return out
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len()}
}
