package cas

import (
	"fmt"

	"github.com/mmm-go/mmm/internal/storage/backend"
)

// Chunk quarantine and repair. When the scrubber (or any digest
// verification) finds a chunk whose stored body no longer yields the
// bytes its content address promises, the body is moved into the blob
// store's quarantine namespace. Every recipe referencing the chunk is
// left untouched — it is correct metadata about data that should
// exist — so a later repair only has to re-ingest a verified body to
// make the store whole again.

// QuarantineChunk moves a chunk's stored body into quarantine unless a
// concurrent writer or reader is relying on it: a chunk with an
// in-flight Put pending may be about to be re-added (the Put skips the
// write when the body exists, then lists it in its recipe — yanking the
// body in that window would commit a recipe over a hole), and a pinned
// chunk has a reader mid-flight that will surface the corruption
// itself. Returns moved=false when the chunk was skipped for either
// reason or its body is already gone.
func (s *Store) QuarantineChunk(hash string) (moved bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pending[hash] > 0 || s.pinned[hash] > 0 {
		return false, nil
	}
	if _, err := s.blobs.Quarantine(ChunkKey(hash)); err != nil {
		if backend.IsNotFound(err) {
			return false, nil
		}
		return false, fmt.Errorf("cas: quarantining chunk %s: %w", hash, err)
	}
	s.invalidateChunk(hash)
	return true, nil
}

// QuarantineBlob moves the raw blob under key — one that no longer
// verifies — into quarantine, dropping any cached parse of it. Returns
// the backend's NotFound when there is no such blob.
func (s *Store) QuarantineBlob(key string) error {
	_, err := s.blobs.Quarantine(key)
	if err == nil {
		s.invalidateIndex(key)
	}
	return err
}

// ChunkQuarantined reports whether the chunk's body sits in quarantine.
func (s *Store) ChunkQuarantined(hash string) bool {
	return s.blobs.HasQuarantined(ChunkKey(hash))
}

// RestoreChunk re-ingests a verified chunk body (fetched from a healthy
// peer) and discards any quarantined copy. The body is digest-verified
// by PutChunk before it is stored; recipes were never touched by
// quarantine, so a successful restore fully heals the chunk.
func (s *Store) RestoreChunk(hash string, data []byte) error {
	if err := s.PutChunk(hash, data); err != nil {
		return err
	}
	if err := s.blobs.DeleteQuarantined(ChunkKey(hash)); err != nil {
		return fmt.Errorf("cas: discarding quarantined copy of %s: %w", hash, err)
	}
	s.invalidateChunk(hash)
	return nil
}

// QuarantinedChunks lists the hashes of quarantined chunks, in sorted
// order. Quarantined blobs outside the chunk namespace are not listed.
func (s *Store) QuarantinedChunks() ([]string, error) {
	entries, err := s.blobs.Quarantined()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if h, ok := ChunkHash(e.Key); ok {
			out = append(out, h)
		}
	}
	return out, nil
}
