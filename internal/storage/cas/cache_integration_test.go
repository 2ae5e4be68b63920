package cas

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

// countingBackend counts Gets per key so tests can prove cache hits
// skip the store.
type countingBackend struct {
	backend.Backend
	mu   sync.Mutex
	gets map[string]int
}

func newCountingBackend() *countingBackend {
	return &countingBackend{Backend: backend.NewMem(), gets: map[string]int{}}
}

func (c *countingBackend) Get(key string) ([]byte, error) {
	c.mu.Lock()
	c.gets[key]++
	c.mu.Unlock()
	return c.Backend.Get(key)
}

func (c *countingBackend) getCount(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gets[key]
}

func TestCacheServesRepeatReadsFromMemory(t *testing.T) {
	cb := newCountingBackend()
	b := blobstore.New(cb, latency.CostModel{}, nil)
	s := For(b)
	s.EnableCache(1<<20, obs.New())
	data := bytes.Repeat([]byte{1, 2, 3, 4}, 2000)
	if _, err := s.Put("k", data, 1024, Hints{}, reg(t)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	r, err := s.Recipe("k")
	if err != nil {
		t.Fatalf("Recipe: %v", err)
	}
	first, err := s.Get("k")
	if err != nil || !bytes.Equal(first, data) {
		t.Fatalf("cold Get: %v", err)
	}
	chunkGets := 0
	for _, c := range r.Chunks {
		chunkGets += cb.getCount(ChunkKey(c.Hash))
	}
	for i := 0; i < 5; i++ {
		warm, err := s.Get("k")
		if err != nil || !bytes.Equal(warm, data) {
			t.Fatalf("warm Get %d: %v", i, err)
		}
	}
	after := 0
	for _, c := range r.Chunks {
		after += cb.getCount(ChunkKey(c.Hash))
	}
	if after != chunkGets {
		t.Fatalf("warm Gets hit the store: %d chunk reads, want %d", after, chunkGets)
	}
	if st := s.ChunkCache().Stats(); st.Hits == 0 {
		t.Fatalf("no cache hits recorded: %+v", st)
	}
}

func TestCacheOnOffByteIdentity(t *testing.T) {
	mk := func(enable bool) []byte {
		b := blobstore.NewMem()
		s := For(b)
		if enable {
			s.EnableCache(1<<20, obs.New())
		}
		data := make([]byte, 10000)
		for i := range data {
			data[i] = byte(i * 31)
		}
		if _, err := s.Put("k", data, 777, Hints{}, reg(t)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		out1, err := s.Get("k")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		out2, err := s.Get("k") // cached path when enabled
		if err != nil {
			t.Fatalf("Get 2: %v", err)
		}
		if !bytes.Equal(out1, out2) {
			t.Fatal("cold and warm reads diverged")
		}
		rng, err := s.GetRange("k", 1234, 4321)
		if err != nil {
			t.Fatalf("GetRange: %v", err)
		}
		return append(out1, rng...)
	}
	if !bytes.Equal(mk(true), mk(false)) {
		t.Fatal("cache-on and cache-off reads diverged")
	}
}

func TestCacheInvalidatedOnReleaseAndGC(t *testing.T) {
	s, _ := newTestStore(t)
	s.EnableCache(1<<20, obs.New())
	data := bytes.Repeat([]byte{9}, 1000)
	if _, err := s.Put("k", data, 0, Hints{}, reg(t)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := s.Get("k"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	r, _ := s.Recipe("k")
	h := r.Chunks[0].Hash
	if _, ok := s.ChunkCache().Get(h); !ok {
		t.Fatal("chunk not cached after read")
	}
	if _, err := s.Delete("k"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, ok := s.ChunkCache().Get(h); ok {
		t.Fatal("released chunk still cached")
	}
	if _, ok := s.ChunkCache().Get(recipeKeyPrefix + "k"); ok {
		t.Fatal("released recipe still cached")
	}
}

func TestEnableCacheGrowOnly(t *testing.T) {
	s, _ := newTestStore(t)
	s.EnableCache(1<<20, obs.New())
	big := s.ChunkCache()
	s.EnableCache(1<<10, obs.New())
	if s.ChunkCache() != big {
		t.Fatal("smaller EnableCache replaced the larger cache")
	}
	s.EnableCache(1<<21, obs.New())
	if s.ChunkCache() == big || s.ChunkCache().MaxBytes() < 1<<21 {
		t.Fatal("larger EnableCache did not grow the cache")
	}
}

func TestVerifyChunkBypassesCache(t *testing.T) {
	s, b := newTestStore(t)
	s.EnableCache(1<<20, obs.New())
	data := bytes.Repeat([]byte{5}, 600)
	if _, err := s.Put("k", data, 0, Hints{}, reg(t)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := s.Get("k"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	r, _ := s.Recipe("k")
	h := r.Chunks[0].Hash
	// Corrupt the stored chunk behind the cache's back. VerifyChunk
	// must see the damage even though the cache still has good bytes.
	if err := b.Put(ChunkKey(h), []byte("not the chunk")); err != nil {
		t.Fatalf("corrupting chunk: %v", err)
	}
	if err := s.VerifyChunk(h, r.Chunks[0].Size); err == nil {
		t.Fatal("VerifyChunk was satisfied by the cache over a corrupt store")
	}
}

// TestStressCASReadWriteGC hammers one CAS store with concurrent
// saves, cached reads, releases, and GC passes. Run under -race via
// make race-stress; correctness assertion is that every successful
// read returns exactly the bytes its key was last saved with.
func TestStressCASReadWriteGC(t *testing.T) {
	s, _ := newTestStore(t)
	s.EnableCache(256<<10, obs.New())
	registry := obs.New()
	payload := func(id int) []byte {
		data := make([]byte, 4096)
		for i := range data {
			data[i] = byte(id + i*7)
		}
		return data
	}
	const keys = 8
	for k := 0; k < keys; k++ {
		if _, err := s.Put(fmt.Sprintf("blob-%d", k), payload(k), 512, Hints{}, registry); err != nil {
			t.Fatalf("seed Put: %v", err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Readers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				k := (g + i) % keys
				got, err := s.Get(fmt.Sprintf("blob-%d", k))
				if err != nil {
					continue // key may be mid-rewrite by the churn writer
				}
				if !bytes.Equal(got, payload(k)) {
					errs <- fmt.Errorf("reader got wrong bytes for blob-%d", k)
					return
				}
				if i%3 == 0 {
					if _, err := s.GetRange(fmt.Sprintf("blob-%d", k), 100, 1000); err == nil {
						continue
					}
				}
			}
		}(g)
	}
	// Writer churning extra keys (same content per key → stable dedup).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			key := fmt.Sprintf("churn-%d", i%4)
			if _, err := s.Put(key, payload(100+i%4), 512, Hints{}, registry); err != nil {
				errs <- fmt.Errorf("churn Put: %w", err)
				return
			}
			if i%2 == 1 {
				if _, err := s.Delete(key); err != nil {
					errs <- fmt.Errorf("churn Release: %w", err)
					return
				}
			}
		}
	}()
	// GC sweeper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := s.GC(registry); err != nil {
				errs <- fmt.Errorf("GC: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The stable keys must still read back exactly.
	for k := 0; k < keys; k++ {
		got, err := s.Get(fmt.Sprintf("blob-%d", k))
		if err != nil || !bytes.Equal(got, payload(k)) {
			t.Fatalf("blob-%d damaged after stress: %v", k, err)
		}
	}
}
