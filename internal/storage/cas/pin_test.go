package cas

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

// gatedBackend wraps a backend and blocks Gets of chosen keys until
// released, letting tests freeze a reader mid-fetch.
type gatedBackend struct {
	backend.Backend
	mu      sync.Mutex
	block   func(key string) bool
	entered chan string   // receives the key each time a gated Get parks
	release chan struct{} // closed to let parked Gets proceed
}

func newGatedBackend(inner backend.Backend, block func(string) bool) *gatedBackend {
	return &gatedBackend{
		Backend: inner,
		block:   block,
		entered: make(chan string, 16),
		release: make(chan struct{}),
	}
}

func (g *gatedBackend) Get(key string) ([]byte, error) {
	g.mu.Lock()
	blocked := g.block != nil && g.block(key)
	g.mu.Unlock()
	if blocked {
		g.entered <- key
		<-g.release
	}
	return g.Backend.Get(key)
}

// stopBlocking turns the gate off for future Gets.
func (g *gatedBackend) stopBlocking() {
	g.mu.Lock()
	g.block = nil
	g.mu.Unlock()
}

func TestPinBlocksEagerDeleteAndGC(t *testing.T) {
	s, _ := newTestStore(t)
	data := bytes.Repeat([]byte{42}, 500)
	if _, err := s.Put("doomed", data, 0, Hints{}, reg(t)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	r, err := s.Recipe("doomed")
	if err != nil {
		t.Fatalf("Recipe: %v", err)
	}
	h := r.Chunks[0].Hash

	s.Pin(h)
	// Release drops the only recipe; the pin must keep the chunk's
	// bytes on disk even though its census count is zero.
	if _, err := s.Delete("doomed"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, err := s.blobs.Size(ChunkKey(h)); err != nil {
		t.Fatalf("pinned chunk deleted by Release: %v", err)
	}
	// GC must also refuse while the pin is held.
	if _, err := s.GC(reg(t)); err != nil {
		t.Fatalf("GC: %v", err)
	}
	if _, err := s.blobs.Size(ChunkKey(h)); err != nil {
		t.Fatalf("pinned chunk deleted by GC: %v", err)
	}
	// The read can still complete against the surviving chunk.
	got, err := s.getChunk(h, r.Chunks[0].Size)
	if err != nil || !bytes.Equal(got, data[:len(got)]) {
		t.Fatalf("reading pinned chunk: %v", err)
	}

	// Once unpinned the debris is collectable.
	s.Unpin(h)
	if _, err := s.GC(reg(t)); err != nil {
		t.Fatalf("GC after unpin: %v", err)
	}
	if _, err := s.blobs.Size(ChunkKey(h)); err == nil {
		t.Fatal("unpinned orphan chunk survived GC")
	}
}

// TestPinRegressionInFlightRead is the regression for GC racing an
// in-flight cached read: a reader parked inside the backend's Get must
// not have its chunk deleted out from under it by a concurrent
// release + GC of the last reference.
func TestPinRegressionInFlightRead(t *testing.T) {
	gated := newGatedBackend(backend.NewMem(), func(key string) bool {
		return strings.HasPrefix(key, chunkPrefix)
	})
	// Writes must not block: only gate after the save is committed.
	gated.stopBlocking()
	b := blobstore.New(gated, latency.CostModel{}, nil)
	s := For(b)
	data := bytes.Repeat([]byte{7}, 800)
	if _, err := s.Put("victim", data, 0, Hints{}, reg(t)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	r, err := s.Recipe("victim")
	if err != nil {
		t.Fatalf("Recipe: %v", err)
	}
	h := r.Chunks[0].Hash
	gated.mu.Lock()
	gated.block = func(key string) bool { return key == ChunkKey(h) }
	gated.mu.Unlock()

	readResult := make(chan error, 1)
	go func() {
		// Get pins the recipe's chunks before fetching them.
		got, err := s.Get("victim")
		if err == nil && !bytes.Equal(got, data) {
			err = errors.New("read bytes diverged")
		}
		readResult <- err
	}()

	// Wait until the reader is parked inside the backend with its pins
	// taken.
	select {
	case <-gated.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("reader never reached the backend")
	}

	// Drop the last reference and GC while the read is in flight.
	if _, err := s.Delete("victim"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	report, err := s.GC(reg(t))
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if report.ChunksDeleted != 0 {
		t.Fatalf("GC deleted %d chunks pinned by the in-flight read", report.ChunksDeleted)
	}
	if _, err := s.blobs.Size(ChunkKey(h)); err != nil {
		t.Fatalf("in-flight read's chunk was deleted: %v", err)
	}

	// Let the read finish: it must see the exact saved bytes.
	gated.stopBlocking()
	close(gated.release)
	if err := <-readResult; err != nil {
		t.Fatalf("in-flight read failed: %v", err)
	}

	// With the read done the pins are gone and GC may collect.
	if _, err := s.GC(reg(t)); err != nil {
		t.Fatalf("final GC: %v", err)
	}
	if _, err := s.blobs.Size(ChunkKey(h)); err == nil {
		t.Fatal("orphan chunk survived GC after the read completed")
	}
}

func TestPinUnpinCountsNest(t *testing.T) {
	s, _ := newTestStore(t)
	data := bytes.Repeat([]byte{3}, 300)
	if _, err := s.Put("k", data, 0, Hints{}, reg(t)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	r, _ := s.Recipe("k")
	h := r.Chunks[0].Hash
	s.Pin(h)
	s.Pin(h)
	s.Unpin(h)
	// One pin still held.
	if _, err := s.Delete("k"); err != nil {
		t.Fatalf("Release: %v", err)
	}
	if _, err := s.blobs.Size(ChunkKey(h)); err != nil {
		t.Fatal("chunk deleted while still pinned once")
	}
	s.Unpin(h)
	if _, err := s.GC(reg(t)); err != nil {
		t.Fatalf("GC: %v", err)
	}
	if _, err := s.blobs.Size(ChunkKey(h)); err == nil {
		t.Fatal("fully unpinned chunk survived GC")
	}
}
