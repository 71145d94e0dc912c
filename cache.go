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
// runs. Entries survive data writes: cached statements refresh their
// snapshots incrementally from the relations' delta chains, so invalidation
// is reserved for schema-level changes (a relation name reappearing in the
// catalogue), keyed by the relation names each plan reads.
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
	names map[string]bool // relations the plan reads; none for an f-plan
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

func (c *planCache) put(ce cacheEntry, names ...string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ce.names = make(map[string]bool, len(names))
	for _, n := range names {
		ce.names[n] = true
	}
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

// invalidate evicts every entry whose plan reads the named relation. Data
// writes never call this (statements self-refresh per delta); it fires on
// schema-level changes — a name entering the catalogue — so a plan compiled
// against a former universe of relations can never serve the new one.
func (c *planCache) invalidate(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.byKey {
		if el.Value.(*cacheEntry).names[name] {
			c.ll.Remove(el)
			delete(c.byKey, key)
		}
	}
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: c.ll.Len()}
}
