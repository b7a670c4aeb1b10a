package server

import (
	"container/list"
	"errors"
	"sync"

	disc "github.com/discdiversity/disc"
)

// resultCacheBudget bounds the bytes the result cache holds across all
// datasets. A result over n points costs about 9·n bytes (a colour and
// a distance per point), so the budget keeps ~70 results of a
// 50,000-point dataset, or thousands of small ones.
const resultCacheBudget = 32 << 20

// entryOverhead approximates the bookkeeping bytes of one cached entry
// (map slot, list element, entry struct, result headers).
const entryOverhead = 256

// cacheEntry is one cached answer: a result, or a local zoom's encoded
// body. Results are encoded per response rather than kept encoded too:
// most are fetched once (a zoom's parent is read, not re-sent), so a
// kept body would mostly be dead weight.
type cacheEntry struct {
	key  string
	res  *disc.Result
	body []byte
	size int64
}

// newResultEntry sizes a result entry: colours (1 B) and distances
// (8 B) for each of the n points, and 8 B per selected id.
func newResultEntry(res *disc.Result, n int) *cacheEntry {
	return &cacheEntry{res: res, size: int64(entryOverhead + 9*n + 8*res.Size())}
}

func newBodyEntry(body []byte) *cacheEntry {
	return &cacheEntry{body: body, size: int64(entryOverhead + len(body))}
}

// errComputePanicked is what requests coalesced onto a computation
// receive when that computation panicked (its own request gets the
// panic, and a 500 from the recovery middleware).
var errComputePanicked = errors.New("server: computing the result panicked")

// flight is one in-progress computation; requests for the same key
// wait on done instead of computing again.
type flight struct {
	done chan struct{}
	ent  *cacheEntry
	err  error
}

// resultCache is a byte-bounded LRU of answers keyed by content (result
// IDs, local-zoom keys) that coalesces concurrent misses for one key
// into one computation. Its mutex guards only map and list updates and
// is never held while computing, so a hit never waits for a compute.
type resultCache struct {
	budget int64
	stats  cacheStats

	mu      sync.Mutex
	bytes   int64
	lru     *list.List // of *cacheEntry, most recent first
	entries map[string]*list.Element
	flights map[string]*flight
}

func newResultCache(budget int64, stats cacheStats) *resultCache {
	return &resultCache{budget: budget, stats: stats, lru: list.New(),
		entries: make(map[string]*list.Element), flights: make(map[string]*flight)}
}

// get returns the entry for key, calling compute on a miss. Concurrent
// misses on one key share a single compute call. A successful result is
// cached before the flight is released, so no later request recomputes
// it while it stays cached; errors are returned to every waiter and
// never cached.
func (c *resultCache) get(key string, compute func() (*cacheEntry, error)) (*cacheEntry, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.stats.hits.Inc()
		return el.Value.(*cacheEntry), nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		c.stats.coalesced.Inc()
		<-f.done
		return f.ent, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.stats.misses.Inc()

	f.err = errComputePanicked // overwritten unless compute panics
	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		if f.err == nil {
			f.ent.key = key
			c.insertLocked(f.ent)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.ent, f.err = compute()
	return f.ent, f.err
}

// insertLocked adds e and evicts least-recently-used entries until the
// cache fits its budget. An entry larger than the whole budget is
// served but not kept.
func (c *resultCache) insertLocked(e *cacheEntry) {
	if e.size > c.budget {
		return
	}
	c.entries[e.key] = c.lru.PushFront(e)
	c.bytes += e.size
	c.stats.bytes.Add(e.size)
	c.stats.entries.Inc()
	for c.bytes > c.budget {
		old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		delete(c.entries, old.key)
		c.bytes -= old.size
		c.stats.bytes.Add(-old.size)
		c.stats.entries.Dec()
		c.stats.evictions.Inc()
	}
}
