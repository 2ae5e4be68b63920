// Package cache is the hot-path serving tier's in-memory object cache:
// a sharded, size-bounded segmented-LRU keyed by string (chunk content
// addresses, recipe keys, per-set chunk-index keys) holding immutable
// decoded values.
//
// The policy is a classic SLRU with weighted admission:
//
//   - Each shard splits its byte budget into a probationary and a
//     protected segment. New entries of weight < ProtectedWeight enter
//     probation; a second touch promotes them. Entries admitted with
//     weight >= ProtectedWeight (for chunks: their CAS census count,
//     i.e. how many stored recipes share the bytes) enter protected
//     directly — highly shared chunks are hot by construction, which is
//     the admission signal sharing-weighted dedup caching gives us for
//     free.
//   - Eviction drains the probationary tail first, so a scan of
//     never-touched-again chunks (a one-off full recovery of a cold
//     set) cannot flush the protected working set.
//
// Values are stored decoded — for compressed chunk bodies the cache
// holds the logical bytes, so a hit skips store latency AND codec
// decode. Values must be treated as immutable by every reader: they
// are handed out without copying.
//
// All methods are safe for concurrent use. Per-shard state is guarded
// by one mutex per shard; the cache never calls out to user code while
// holding it (admission weight is a plain argument), so it cannot
// participate in lock-order cycles with its callers.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"github.com/mmm-go/mmm/internal/obs"
)

// ProtectedWeight is the admission weight at which an entry skips
// probation and enters the protected segment directly. For chunk
// entries the weight is the chunk's CAS census count — how many stored
// recipes list it — so 2 means "shared by at least two saved blobs".
const ProtectedWeight = 2

// Cache metric families exposed on /metrics.
const (
	// MetricHits counts lookups served from memory.
	MetricHits = "mmm_chunk_cache_hits_total"
	// MetricMisses counts lookups that fell through to the store.
	MetricMisses = "mmm_chunk_cache_misses_total"
	// MetricEvictions counts entries evicted to stay within budget.
	MetricEvictions = "mmm_chunk_cache_evictions_total"
	// MetricRejects counts entries refused at admission (larger than a
	// shard's whole budget).
	MetricRejects = "mmm_chunk_cache_admission_rejects_total"
	// MetricBytes gauges the bytes currently cached.
	MetricBytes = "mmm_chunk_cache_bytes"
	// MetricEntries gauges the entries currently cached.
	MetricEntries = "mmm_chunk_cache_entries"
)

// segment identifiers.
const (
	segProbation = iota
	segProtected
)

// Config configures a Cache.
type Config struct {
	// MaxBytes bounds the total cached bytes across all shards.
	// Values <= 0 produce a cache that admits nothing.
	MaxBytes int64
	// Shards is the number of independently locked shards; <= 0 uses
	// DefaultShards. Use 1 in tests that assert exact eviction order.
	Shards int
	// ProtectedFrac is the fraction of each shard's budget reserved for
	// the protected segment (0 < f < 1); 0 uses DefaultProtectedFrac.
	ProtectedFrac float64
	// Clock supplies the logical timestamps entries are stamped with on
	// every touch. nil uses an internal monotonic counter. Tests inject
	// a fake clock to make recency deterministic and observable.
	Clock func() int64
	// Registry receives the cache's metrics; nil means obs.Default.
	Registry *obs.Registry
}

// DefaultShards is the shard count when Config.Shards is unset.
const DefaultShards = 16

// DefaultProtectedFrac is the protected-segment share of each shard's
// budget when Config.ProtectedFrac is unset.
const DefaultProtectedFrac = 0.8

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Rejects   int64
	Entries   int64
	Bytes     int64
}

// entry is one cached object.
type entry struct {
	key      string
	val      any
	size     int64
	seg      int8
	lastUsed int64
	elem     *list.Element
}

// shard is one independently locked SLRU.
type shard struct {
	mu        sync.Mutex
	entries   map[string]*entry
	probation *list.List // front = most recent
	protected *list.List
	probBytes int64
	protBytes int64
}

// Cache is a sharded segmented-LRU over immutable values.
type Cache struct {
	shards       []*shard
	shardCap     int64
	protectedCap int64
	clock        func() int64
	tick         atomic.Int64 // default clock

	bytes   atomic.Int64
	entries atomic.Int64

	hits, misses, evictions, rejects *obs.Counter
	bytesGauge, entriesGauge         *obs.Gauge
}

// New builds a cache from cfg.
func New(cfg Config) *Cache {
	shards := cfg.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	frac := cfg.ProtectedFrac
	if frac <= 0 || frac >= 1 {
		frac = DefaultProtectedFrac
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	reg.Describe(MetricHits, "Chunk-cache lookups served from memory.")
	reg.Describe(MetricMisses, "Chunk-cache lookups that fell through to the store.")
	reg.Describe(MetricEvictions, "Chunk-cache entries evicted to stay within budget.")
	reg.Describe(MetricRejects, "Chunk-cache entries refused at admission (over shard budget).")
	reg.Describe(MetricBytes, "Bytes currently held by the chunk cache.")
	reg.Describe(MetricEntries, "Entries currently held by the chunk cache.")
	c := &Cache{
		shards:       make([]*shard, shards),
		shardCap:     cfg.MaxBytes / int64(shards),
		clock:        cfg.Clock,
		hits:         reg.Counter(MetricHits),
		misses:       reg.Counter(MetricMisses),
		evictions:    reg.Counter(MetricEvictions),
		rejects:      reg.Counter(MetricRejects),
		bytesGauge:   reg.Gauge(MetricBytes),
		entriesGauge: reg.Gauge(MetricEntries),
	}
	c.protectedCap = int64(float64(c.shardCap) * frac)
	for i := range c.shards {
		c.shards[i] = &shard{
			entries:   map[string]*entry{},
			probation: list.New(),
			protected: list.New(),
		}
	}
	return c
}

// MaxBytes returns the configured total byte budget.
func (c *Cache) MaxBytes() int64 { return c.shardCap * int64(len(c.shards)) }

// now returns the current logical time.
func (c *Cache) now() int64 {
	if c.clock != nil {
		return c.clock()
	}
	return c.tick.Add(1)
}

// shardOf picks the shard of key (FNV-1a).
func (c *Cache) shardOf(key string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return c.shards[h%uint32(len(c.shards))]
}

// Get returns the value cached under key. A hit refreshes the entry's
// recency and promotes probationary entries into the protected segment.
// The returned value is shared — callers must not mutate it.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shardOf(key)
	now := c.now()
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Inc()
		return nil, false
	}
	e.lastUsed = now
	if e.seg == segProbation {
		// Second touch: earned a protected slot.
		s.probation.Remove(e.elem)
		s.probBytes -= e.size
		e.seg = segProtected
		e.elem = s.protected.PushFront(e)
		s.protBytes += e.size
		s.demote(c)
	} else {
		s.protected.MoveToFront(e.elem)
	}
	v := e.val
	s.mu.Unlock()
	c.hits.Inc()
	return v, true
}

// Put admits a value of the given size under key. weight >=
// ProtectedWeight admits directly into the protected segment (for
// chunks the weight is the CAS census count). Values larger than a whole
// shard's budget are rejected. Re-putting an existing key refreshes
// the stored value in place. Returns whether the value was admitted.
// The cache keeps a reference to val — callers must not mutate it.
func (c *Cache) Put(key string, val any, size int64, weight int) bool {
	if size < 0 {
		size = 0
	}
	s := c.shardOf(key)
	now := c.now()
	s.mu.Lock()
	if size > c.shardCap {
		s.mu.Unlock()
		c.rejects.Inc()
		return false
	}
	if e, ok := s.entries[key]; ok {
		// Same key: values are immutable by contract (content-addressed
		// chunks cannot change), so only refresh recency and the stored
		// value/size bookkeeping.
		delta := size - e.size
		e.val, e.size, e.lastUsed = val, size, now
		if e.seg == segProbation {
			s.probBytes += delta
			s.probation.MoveToFront(e.elem)
		} else {
			s.protBytes += delta
			s.protected.MoveToFront(e.elem)
		}
		c.adjust(delta, 0)
		s.evict(c)
		s.mu.Unlock()
		return true
	}
	e := &entry{key: key, val: val, size: size, lastUsed: now}
	if weight >= ProtectedWeight {
		e.seg = segProtected
		e.elem = s.protected.PushFront(e)
		s.protBytes += size
	} else {
		e.seg = segProbation
		e.elem = s.probation.PushFront(e)
		s.probBytes += size
	}
	s.entries[key] = e
	c.adjust(size, 1)
	s.demote(c)
	s.evict(c)
	s.mu.Unlock()
	return true
}

// Delete drops the entry under key, if cached. Callers invalidate on
// chunk deletion (GC, release) — not for correctness, since content
// addresses never change meaning, but so deleted data stops occupying
// budget.
func (c *Cache) Delete(key string) {
	s := c.shardOf(key)
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.remove(e)
		c.adjust(-e.size, -1)
	}
	s.mu.Unlock()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Value(),
		Misses:    c.misses.Value(),
		Evictions: c.evictions.Value(),
		Rejects:   c.rejects.Value(),
		Entries:   c.entries.Load(),
		Bytes:     c.bytes.Load(),
	}
}

// Bytes returns the bytes currently cached.
func (c *Cache) Bytes() int64 { return c.bytes.Load() }

// Len returns the entries currently cached.
func (c *Cache) Len() int { return int(c.entries.Load()) }

// adjust applies a bytes/entries delta to the totals and gauges.
func (c *Cache) adjust(bytes, entries int64) {
	c.bytesGauge.Set(c.bytes.Add(bytes))
	c.entriesGauge.Set(c.entries.Add(entries))
}

// remove unlinks e from its segment and the map. Caller holds s.mu.
func (s *shard) remove(e *entry) {
	if e.seg == segProbation {
		s.probation.Remove(e.elem)
		s.probBytes -= e.size
	} else {
		s.protected.Remove(e.elem)
		s.protBytes -= e.size
	}
	delete(s.entries, e.key)
}

// demote moves protected-tail entries down into probation until the
// protected segment fits its budget share. Demotion keeps the bytes
// cached (they may be re-promoted by a touch); only eviction frees
// them. Caller holds s.mu.
func (s *shard) demote(c *Cache) {
	for s.protBytes > c.protectedCap {
		victim := s.protected.Back()
		if victim == nil {
			return
		}
		e := victim.Value.(*entry)
		s.protected.Remove(e.elem)
		s.protBytes -= e.size
		e.seg = segProbation
		e.elem = s.probation.PushFront(e)
		s.probBytes += e.size
	}
}

// evict removes probationary-tail (then protected-tail) entries until
// the shard fits its budget. Caller holds s.mu.
func (s *shard) evict(c *Cache) {
	for s.probBytes+s.protBytes > c.shardCap {
		victim := s.probation.Back()
		if victim == nil {
			victim = s.protected.Back()
		}
		if victim == nil {
			return
		}
		e := victim.Value.(*entry)
		s.remove(e)
		c.adjust(-e.size, -1)
		c.evictions.Inc()
	}
}
