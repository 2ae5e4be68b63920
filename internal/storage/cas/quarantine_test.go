package cas

import (
	"bytes"
	"errors"
	"testing"

	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

// corruptChunk flips one byte of a chunk's stored body behind the blob
// store's back, leaving its CRC manifest stale — the scrubber's target
// condition.
func corruptChunk(t *testing.T, be backend.Backend, hash string) {
	t.Helper()
	key := ChunkKey(hash)
	raw, err := be.Get(key)
	if err != nil {
		t.Fatalf("reading chunk body: %v", err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := be.Put(key, raw); err != nil {
		t.Fatalf("writing corrupted body: %v", err)
	}
}

func TestQuarantineChunkMovesBodyAndFailsReads(t *testing.T) {
	be := backend.NewMem()
	blobs := blobstore.New(be, latency.CostModel{}, nil)
	s := For(blobs)
	data := bytes.Repeat([]byte("quarantine me "), 1000)
	if _, err := s.Put("q/blob", data, 4096, Hints{}, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	r, err := s.Recipe("q/blob")
	if err != nil {
		t.Fatalf("Recipe: %v", err)
	}
	hash := r.Chunks[0].Hash

	moved, err := s.QuarantineChunk(hash)
	if err != nil || !moved {
		t.Fatalf("QuarantineChunk = (%v, %v), want (true, nil)", moved, err)
	}
	if s.HasChunk(hash) {
		t.Fatal("chunk body still present after quarantine")
	}
	if !s.ChunkQuarantined(hash) {
		t.Fatal("chunk not reported quarantined")
	}
	// Reads must fail fast with corruption, not absence, and never
	// return wrong bytes.
	if _, err := s.Get("q/blob"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get after quarantine: err = %v, want ErrCorrupt", err)
	}
	if err := s.VerifyChunk(hash, r.Chunks[0].Size); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyChunk after quarantine: err = %v, want ErrCorrupt", err)
	}
	// Quarantining an already-quarantined (now missing) chunk is a
	// clean no-op.
	if moved, err := s.QuarantineChunk(hash); err != nil || moved {
		t.Fatalf("second QuarantineChunk = (%v, %v), want (false, nil)", moved, err)
	}
}

func TestRestoreChunkHealsQuarantine(t *testing.T) {
	be := backend.NewMem()
	blobs := blobstore.New(be, latency.CostModel{}, nil)
	s := For(blobs)
	data := bytes.Repeat([]byte("restore target "), 1000)
	if _, err := s.Put("q/blob", data, 4096, Hints{}, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	r, _ := s.Recipe("q/blob")
	hash := r.Chunks[0].Hash
	good, err := s.GetChunk(hash, r.Chunks[0].Size)
	if err != nil {
		t.Fatalf("GetChunk: %v", err)
	}
	if moved, err := s.QuarantineChunk(hash); err != nil || !moved {
		t.Fatalf("QuarantineChunk = (%v, %v)", moved, err)
	}

	// A body that does not match the address must be rejected.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0x01
	if err := s.RestoreChunk(hash, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("RestoreChunk with wrong bytes: err = %v, want ErrCorrupt", err)
	}
	if !s.ChunkQuarantined(hash) {
		t.Fatal("failed restore discarded the quarantined copy")
	}

	if err := s.RestoreChunk(hash, good); err != nil {
		t.Fatalf("RestoreChunk: %v", err)
	}
	if s.ChunkQuarantined(hash) {
		t.Fatal("quarantined copy survived a successful restore")
	}
	back, err := s.Get("q/blob")
	if err != nil {
		t.Fatalf("Get after restore: %v", err)
	}
	if !bytes.Equal(back, data) {
		t.Fatal("restored blob differs from the original")
	}
}

func TestQuarantineChunkRespectsPinsAndPending(t *testing.T) {
	be := backend.NewMem()
	blobs := blobstore.New(be, latency.CostModel{}, nil)
	s := For(blobs)
	data := bytes.Repeat([]byte("pinned chunk "), 1000)
	if _, err := s.Put("q/blob", data, 1<<20, Hints{}, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	r, _ := s.Recipe("q/blob")
	hash := r.Chunks[0].Hash

	// A pinned chunk (in-flight read) must not be yanked.
	s.Pin(hash)
	if moved, err := s.QuarantineChunk(hash); err != nil || moved {
		t.Fatalf("QuarantineChunk of pinned chunk = (%v, %v), want (false, nil)", moved, err)
	}
	s.Unpin(hash)

	// A chunk with an in-flight Put pending must not be yanked either:
	// the Put may have skipped the write because the body existed and
	// is about to take a reference.
	s.mu.Lock()
	s.pending[hash]++
	s.mu.Unlock()
	if moved, err := s.QuarantineChunk(hash); err != nil || moved {
		t.Fatalf("QuarantineChunk of pending chunk = (%v, %v), want (false, nil)", moved, err)
	}
	s.mu.Lock()
	delete(s.pending, hash)
	s.mu.Unlock()

	if moved, err := s.QuarantineChunk(hash); err != nil || !moved {
		t.Fatalf("QuarantineChunk after unpin = (%v, %v), want (true, nil)", moved, err)
	}
}

func TestQuarantinedChunksListsHashes(t *testing.T) {
	be := backend.NewMem()
	blobs := blobstore.New(be, latency.CostModel{}, nil)
	s := For(blobs)
	if _, err := s.Put("q/blob", bytes.Repeat([]byte("list me "), 2000), 4096, Hints{}, nil); err != nil {
		t.Fatalf("Put: %v", err)
	}
	r, _ := s.Recipe("q/blob")
	corruptChunk(t, be, r.Chunks[0].Hash)
	if _, err := s.QuarantineChunk(r.Chunks[0].Hash); err != nil {
		t.Fatalf("QuarantineChunk: %v", err)
	}
	got, err := s.QuarantinedChunks()
	if err != nil {
		t.Fatalf("QuarantinedChunks: %v", err)
	}
	if len(got) != 1 || got[0] != r.Chunks[0].Hash {
		t.Fatalf("QuarantinedChunks = %v, want [%s]", got, r.Chunks[0].Hash)
	}
}
