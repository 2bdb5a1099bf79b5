package pipeline

import (
	"context"
	"sync"
	"sync/atomic"

	"doacross/internal/dfg"
)

// cacheShards is the shard count; keys are SHA-256 outputs, so the first
// byte distributes uniformly.
const cacheShards = 32

// Cache is a sharded, content-addressed schedule cache. Keys are
// dfg.ConfigKey fingerprints: a key determines the full scheduling problem
// (graph content + machine configuration + scheduler options), so two
// computations that produce a value for the same key produce interchangeable
// values. The cache exploits that with first-writer-wins semantics: once a
// key is bound, later Puts return the existing value instead of replacing
// it, so every reader of a key observes one immutable value regardless of
// worker interleaving. A Cache may be shared across batches (and across
// goroutines); the zero value is NOT ready — use NewCache or NewCacheBounded.
type Cache struct {
	shards [cacheShards]cacheShard
	// perShard bounds each shard's entry count (0 = unbounded). Because
	// every cached value is recomputable from its key, eviction is safe: a
	// victim is simply dropped and the next reader recomputes it.
	perShard  int
	evictions atomic.Int64

	// pending maps each key a caller is computing right now (see claim) to
	// a channel closed when that caller is done with it.
	pmu     sync.Mutex
	pending map[dfg.Fingerprint]chan struct{}
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[dfg.Fingerprint]any
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache { return NewCacheBounded(0) }

// NewCacheBounded returns an empty cache holding at most capacity entries
// (approximately: the bound is enforced per shard). capacity <= 0 means
// unbounded. When a full shard admits a new key, an arbitrary resident entry
// is evicted and counted — cached values are pure functions of their keys,
// so an evicted entry costs only a recompute, never correctness.
func NewCacheBounded(capacity int) *Cache {
	c := &Cache{}
	if capacity > 0 {
		c.perShard = (capacity + cacheShards - 1) / cacheShards
	}
	for i := range c.shards {
		c.shards[i].m = make(map[dfg.Fingerprint]any)
	}
	return c
}

func (c *Cache) shard(k dfg.Fingerprint) *cacheShard {
	return &c.shards[int(k[0])%cacheShards]
}

// Get returns the value bound to k, if any.
func (c *Cache) Get(k dfg.Fingerprint) (any, bool) {
	s := c.shard(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

// Put binds k to v unless k is already bound, returning the bound value and
// whether it was already present (compare-and-swap publication: the first
// writer wins, later writers adopt the winner's value). On a bounded cache,
// admitting a new key to a full shard evicts an arbitrary resident entry
// first.
func (c *Cache) Put(k dfg.Fingerprint, v any) (any, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.m[k]; ok {
		return old, true
	}
	if c.perShard > 0 && len(s.m) >= c.perShard {
		for victim := range s.m {
			delete(s.m, victim)
			c.evictions.Add(1)
			break
		}
	}
	s.m[k] = v
	return v, false
}

// claim is Get for a caller that computes and Puts the value itself on a
// miss. When another caller is already computing k, claim waits for it
// instead of duplicating the work and returns the value it published, so
// concurrent identical misses cost one computation. On a miss the caller
// holds k until it calls release (idempotent), which it must do once its
// Put is done or it decided not to Put; a computation that publishes
// nothing lets the next waiter compute. When ctx expires during a wait the
// caller computes unclaimed. Unlike Group, the computation runs on the
// claimer's own goroutine: it uses the calling worker's scheduler scratch,
// which must not outlive the worker's wait.
func (c *Cache) claim(ctx context.Context, k dfg.Fingerprint) (v any, ok bool, release func()) {
	for {
		if v, ok := c.Get(k); ok {
			return v, true, nil
		}
		c.pmu.Lock()
		if v, ok := c.Get(k); ok {
			c.pmu.Unlock()
			return v, true, nil
		}
		busy, computing := c.pending[k]
		if !computing {
			done := make(chan struct{})
			if c.pending == nil {
				c.pending = make(map[dfg.Fingerprint]chan struct{})
			}
			c.pending[k] = done
			c.pmu.Unlock()
			return nil, false, func() {
				c.pmu.Lock()
				if c.pending[k] == done {
					delete(c.pending, k)
					close(done)
				}
				c.pmu.Unlock()
			}
		}
		c.pmu.Unlock()
		select {
		case <-busy:
		case <-ctx.Done():
			return nil, false, func() {}
		}
	}
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Evictions returns how many entries have been evicted by the capacity
// bound (always 0 on an unbounded cache).
func (c *Cache) Evictions() int64 { return c.evictions.Load() }
