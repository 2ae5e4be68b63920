package cas

import (
	"sync/atomic"

	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/cache"
)

// The serving-tier cache sits directly on the Store: a blob store has
// exactly one (see For), so attaching the cache here makes it shared
// by all four approaches' read paths with zero plumbing in the callers.
//
// Cache key namespaces (one flat cache, byte budget shared by all
// three — hot recipes and indexes are tiny next to chunks but save a
// store round-trip each, so letting them compete for the same budget
// favors exactly the metadata the hot path re-reads):
//
//	<64 hex chars>   decoded logical chunk bytes, keyed by content address
//	"rcp:"+logical   parsed Recipe of a logical key
//	"idx:"+blobKey   parsed per-set chunk index stored raw under blobKey
//
// Values handed out of the cache are shared and must not be mutated.

const (
	recipeKeyPrefix = "rcp:"
	indexKeyPrefix  = "idx:"
)

// EnableCache attaches an in-memory chunk cache of at most maxBytes to
// the store. It is idempotent and grow-only: the largest budget any
// caller asked for wins, and an attached cache is never detached —
// consumers that did not opt in simply share the hits. Safe for
// concurrent use.
func (s *Store) EnableCache(maxBytes int64, reg *obs.Registry) {
	if maxBytes <= 0 {
		return
	}
	for {
		cur := s.cache.Load()
		if cur != nil && cur.MaxBytes() >= maxBytes {
			return
		}
		next := cache.New(cache.Config{MaxBytes: maxBytes, Registry: reg})
		if s.cache.CompareAndSwap(cur, next) {
			return
		}
	}
}

// ChunkCache returns the attached cache, nil when none is enabled.
func (s *Store) ChunkCache() *cache.Cache { return s.cache.Load() }

// Pin marks chunk hashes as held by an in-flight read: release's eager
// delete-at-zero, GC, and a failed Put's undo all refuse to delete a
// pinned chunk, exactly like chunks of in-flight Puts. Every Pin must
// be paired with an Unpin of the same hashes.
func (s *Store) Pin(hashes ...string) {
	s.mu.Lock()
	for _, h := range hashes {
		s.pinned[h]++
	}
	s.mu.Unlock()
}

// Unpin releases pins taken by Pin.
func (s *Store) Unpin(hashes ...string) {
	s.mu.Lock()
	for _, h := range hashes {
		if s.pinned[h]--; s.pinned[h] <= 0 {
			delete(s.pinned, h)
		}
	}
	s.mu.Unlock()
}

// chunkWeight is the cache admission weight of a chunk: its census
// count, i.e. how many stored recipes share it. Computed with a brief
// mu acquisition — never while holding cache locks, so the cache stays
// a leaf in the lock order.
func (s *Store) chunkWeight(hash string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.censusLocked()[hash]
}

// getChunkCached returns the logical bytes of a chunk, serving from
// the cache when possible and admitting store reads weighted by the
// chunk's census count. The returned slice may be cache-resident: callers
// must copy before mutating.
func (s *Store) getChunkCached(hash string, want int64) ([]byte, error) {
	c := s.cache.Load()
	if c == nil {
		return s.getChunk(hash, want)
	}
	if v, ok := c.Get(hash); ok {
		return v.([]byte), nil
	}
	data, err := s.getChunk(hash, want)
	if err != nil {
		return nil, err
	}
	c.Put(hash, data, int64(len(data)), s.chunkWeight(hash))
	return data, nil
}

// readRecipeCached returns the parsed recipe of a logical key, cached
// under "rcp:"+key. The raw bytes are only loaded on a miss; cached
// hits return rawLen = the recipe document's size (for Release's freed
// accounting callers re-read on the uncached path instead).
func (s *Store) readRecipeCached(key string) (Recipe, error) {
	c := s.cache.Load()
	if c == nil {
		r, _, err := s.readRecipe(key)
		return r, err
	}
	ck := recipeKeyPrefix + key
	if v, ok := c.Get(ck); ok {
		return v.(Recipe), nil
	}
	r, raw, err := s.readRecipe(key)
	if err != nil {
		return Recipe{}, err
	}
	// Weight 1: recipes earn protection by reuse, not sharing.
	c.Put(ck, r, int64(len(raw)), 1)
	return r, nil
}

// invalidateRecipe drops the cached recipe of a logical key. Called on
// every recipe write and delete so the cache never outlives the store.
func (s *Store) invalidateRecipe(key string) {
	if c := s.cache.Load(); c != nil {
		c.Delete(recipeKeyPrefix + key)
	}
}

// invalidateChunk drops a chunk's cached bytes after its blob is
// deleted (GC, release-at-zero) so dead data stops occupying budget.
func (s *Store) invalidateChunk(hash string) {
	if c := s.cache.Load(); c != nil {
		c.Delete(hash)
	}
}

// LoadIndex returns the parsed chunk index stored raw under key, or nil
// when there is none (sets saved without dedup, or before indexes
// existed). Parsed indexes are cached; PutRaw, Delete and
// QuarantineBlob of the key drop the entry.
func (s *Store) LoadIndex(key string) (*Index, error) {
	c := s.cache.Load()
	if c != nil {
		if v, ok := c.Get(indexKeyPrefix + key); ok {
			return v.(*Index), nil
		}
	}
	raw, err := s.blobs.Get(key)
	if err != nil {
		if backend.IsNotFound(err) {
			return nil, nil
		}
		return nil, err
	}
	ix, err := DecodeIndex(raw)
	if err != nil {
		return nil, err
	}
	if c != nil {
		c.Put(indexKeyPrefix+key, &ix, int64(len(raw)), 1)
	}
	return &ix, nil
}

// invalidateIndex drops the cached parse of the raw blob under key,
// after the blob is written, deleted or quarantined.
func (s *Store) invalidateIndex(key string) {
	if c := s.cache.Load(); c != nil {
		c.Delete(indexKeyPrefix + key)
	}
}

// GetChunk returns the logical bytes of one chunk by content address,
// pinned against concurrent GC/release for the duration of the fetch
// and served through the cache. The returned slice may be shared with
// the cache: callers must treat it as read-only.
func (s *Store) GetChunk(hash string, size int64) ([]byte, error) {
	s.Pin(hash)
	defer s.Unpin(hash)
	return s.getChunkCached(hash, size)
}

// cachePointer is split into its own type alias to keep the Store
// declaration in cas.go dependency-light.
type cachePointer = atomic.Pointer[cache.Cache]
