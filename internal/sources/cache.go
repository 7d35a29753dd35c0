package sources

import (
	"container/list"
	"context"
	"errors"
	"strings"
	"sync"

	"repro/internal/access"
)

// Cached wraps a Source with a call cache: repeated calls with the same
// pattern and inputs are served locally. Mediator plans join through
// remote services, so the same lookup is often issued once per binding;
// caching converts that to one remote call. The wrapper is safe for
// concurrent use and exposes hit/miss/eviction counters.
//
// Concurrent misses on the same key are collapsed into a single inner
// call (singleflight): the first caller fetches, the others wait for its
// result. Followers are counted as hits — they were served without
// inner traffic — so misses counts exactly the inner calls made.
//
// A capacity (NewCachedWithCapacity) bounds the number of cached keys
// with least-recently-used eviction; serving workloads otherwise grow
// the call cache without limit. Zero capacity means unbounded.
type Cached struct {
	forward
	capacity int // 0 = unbounded

	mu        sync.Mutex
	cache     map[string]*list.Element // key -> element in lru
	lru       *list.List               // of *cacheEntry; front = most recently used
	inflight  map[string]*flight
	gen       int // bumped by Reset; fetches from an old generation are not installed
	hits      int
	misses    int
	evictions int
}

// cacheEntry is one cached key with its rows.
type cacheEntry struct {
	key  string
	rows []Tuple
}

// flight is one in-progress inner fetch that concurrent callers of the
// same key wait on.
type flight struct {
	done chan struct{}
	rows []Tuple
	err  error
}

// NewCached wraps src with an unbounded cache.
func NewCached(src Source) *Cached {
	return NewCachedWithCapacity(src, 0)
}

// NewCachedWithCapacity wraps src with a cache of at most maxEntries
// keys, evicting the least recently used key when full. A maxEntries of
// zero (or negative) means unbounded.
func NewCachedWithCapacity(src Source, maxEntries int) *Cached {
	if maxEntries < 0 {
		maxEntries = 0
	}
	return &Cached{
		forward:  forward{inner: src},
		capacity: maxEntries,
		cache:    map[string]*list.Element{},
		lru:      list.New(),
		inflight: map[string]*flight{},
	}
}

// Call implements Source: cached keys are answered locally and only
// the misses travel to the inner source, as one inner group. Errors are
// not cached (a bad pattern stays an error on every call), and any
// failure fails the whole group.
//
// A key another goroutine is already fetching — or an earlier vector of
// this very group registered — is waited on instead of fetched again,
// after this call's own fetch has completed. A waiter stops waiting
// when its own context is cancelled; the fetch itself runs under the
// leader's context. A leader whose fetch died of its *own* context's
// cancellation must not poison the followers: their contexts may be
// perfectly live (one query's caller hanging up says nothing about the
// others), so such a follower goes around again — re-checking the
// cache, joining a newer flight, or becoming the new leader and
// fetching under its own context. Real source failures still propagate
// to every waiter unchanged.
func (c *Cached) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]Tuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type pending struct {
		i   int // index into inputs
		key string
		f   *flight
	}
	out := make([][]Tuple, len(inputs))
	todo := make([]int, len(inputs))
	for i := range todo {
		todo[i] = i
	}
	for len(todo) > 0 {
		var leads, waits []pending
		var leadInputs [][]string

		c.mu.Lock()
		for _, i := range todo {
			key := callKey(p, inputs[i])
			if elem, ok := c.cache[key]; ok {
				c.hits++
				c.lru.MoveToFront(elem)
				out[i] = copyTuples(elem.Value.(*cacheEntry).rows)
			} else if f, ok := c.inflight[key]; ok {
				waits = append(waits, pending{i, key, f})
			} else {
				f := &flight{done: make(chan struct{})}
				c.inflight[key] = f
				leads = append(leads, pending{i, key, f})
				leadInputs = append(leadInputs, inputs[i])
			}
		}
		gen := c.gen
		c.mu.Unlock()

		if len(leads) > 0 {
			groups, err := c.inner.Call(ctx, p, leadInputs)
			c.mu.Lock()
			for k, l := range leads {
				if err != nil {
					l.f.err = err
				} else {
					l.f.rows = copyTuples(groups[k])
					if gen == c.gen {
						c.misses++
						c.install(l.key, l.f.rows)
					}
				}
				if gen == c.gen {
					delete(c.inflight, l.key)
				}
			}
			c.mu.Unlock()
			for _, l := range leads {
				close(l.f.done)
			}
			if err != nil {
				return nil, err
			}
			for k, l := range leads {
				out[l.i] = groups[k]
			}
		}

		todo = todo[:0]
		served := 0
		for _, w := range waits {
			select {
			case <-w.f.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if w.f.err == nil {
				out[w.i] = copyTuples(w.f.rows)
				served++
			} else if isContextError(w.f.err) && ctx.Err() == nil {
				todo = append(todo, w.i) // leader hung up, we did not: take over
			} else {
				return nil, w.f.err
			}
		}
		if served > 0 {
			c.mu.Lock()
			c.hits += served
			c.mu.Unlock()
		}
	}
	return out, nil
}

// callKey identifies one (pattern, input vector) call of a source.
func callKey(p access.Pattern, in []string) string {
	return string(p) + "\x00" + strings.Join(in, "\x1f")
}

// isContextError reports whether err is a context cancellation or
// deadline expiry — the error classes that belong to one caller's
// context rather than to the source.
func isContextError(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// install adds a fetched key to the cache and evicts past capacity;
// c.mu must be held.
func (c *Cached) install(key string, rows []Tuple) {
	c.cache[key] = c.lru.PushFront(&cacheEntry{key: key, rows: rows})
	if c.capacity <= 0 {
		return
	}
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.cache, back.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// HitsMisses returns the cache counters.
func (c *Cached) HitsMisses() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Evictions returns the number of keys evicted by the capacity bound.
func (c *Cached) Evictions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Reset clears the cache and counters (call after the underlying data
// changes). In-flight fetches complete against the old generation; their
// results are not installed into the fresh cache.
func (c *Cached) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache = map[string]*list.Element{}
	c.lru = list.New()
	c.inflight = map[string]*flight{}
	c.gen++
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// CachedCatalog wraps every source of a catalog with a cache.
func CachedCatalog(cat *Catalog) (*Catalog, []*Cached, error) {
	var wrapped []Source
	var caches []*Cached
	for _, name := range cat.Names() {
		c := NewCached(cat.Source(name))
		wrapped = append(wrapped, c)
		caches = append(caches, c)
	}
	out, err := NewCatalog(wrapped...)
	if err != nil {
		return nil, nil, err
	}
	return out, caches, nil
}
