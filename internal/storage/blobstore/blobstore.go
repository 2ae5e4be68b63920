// Package blobstore is the binary artifact store of the model
// management system: parameter files, architecture definitions, and
// diff blobs live here. It corresponds to the "file store" in MMlib's
// storage layout.
//
// The store is instrumented — it counts operations and bytes and
// charges a latency.CostModel to a shared clock — because the paper's
// three metrics are exactly "how many bytes were written" (storage
// consumption) and "how long did writing/reading take" (TTS/TTR), and
// optimization O3 is about reducing the *number* of store writes.
package blobstore

import (
	"fmt"
	"hash/crc32"
	"strings"
	"sync"

	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

// Stats counts a store's traffic since creation (or the last Reset).
type Stats struct {
	PutOps       int64
	GetOps       int64
	BytesWritten int64
	BytesRead    int64
}

// Store is an instrumented blob store. Safe for concurrent use if the
// underlying backend is.
type Store struct {
	backend backend.Backend
	model   latency.CostModel
	clock   *latency.Clock

	mu    sync.Mutex
	stats Stats

	// view is the one layer built on top of this store — the CAS layer's
	// logical-blob view, whose recipe census, pins and cache must be
	// shared by everyone using the store. The store owns it, so it lives
	// exactly as long as the store does. Typed any because the layer
	// imports this package.
	viewOnce sync.Once
	view     any
}

// New returns a store over b, charging costs from model to clock.
// A nil clock disables latency modeling.
func New(b backend.Backend, model latency.CostModel, clock *latency.Clock) *Store {
	return &Store{backend: b, model: model, clock: clock}
}

// View returns the store's view, building it with mk on first use.
func (s *Store) View(mk func(*Store) any) any {
	s.viewOnce.Do(func() { s.view = mk(s) })
	return s.view
}

// NewMem returns an uninstrumented in-memory store, convenient for
// tests and plain library use.
func NewMem() *Store {
	return New(backend.NewMem(), latency.CostModel{}, nil)
}

// Put stores data under key and records its checksums in the store
// manifest. The blob is written first, so a manifest entry's presence
// implies its blob completed; if the manifest write fails, a fresh key
// is removed again so no half-committed pair remains, and an
// overwritten key is restored to its previous committed value — a
// transient bookkeeping failure must not destroy data that was already
// durable. Manifest traffic is bookkeeping and is charged to neither
// the statistics nor the latency model.
func (s *Store) Put(key string, data []byte) error {
	if strings.HasPrefix(key, manifestPrefix) {
		return fmt.Errorf("storage: key %q is in the reserved %q namespace", key, manifestPrefix)
	}
	if strings.HasPrefix(key, QuarantinePrefix) {
		return fmt.Errorf("storage: key %q is in the reserved %q namespace", key, QuarantinePrefix)
	}
	old, oldErr := s.backend.Get(key)
	if err := s.backend.Put(key, data); err != nil {
		return err
	}
	if err := s.writeManifest(key, data); err != nil {
		switch {
		case oldErr == nil:
			// Overwrite: put the old bytes back. Its manifest entry was
			// never touched, so the restored pair verifies again. If the
			// restore itself fails, the new bytes stay behind the old
			// manifest and fsck reports the mismatch instead of losing
			// the key outright.
			_ = s.backend.Put(key, old)
		case backend.IsNotFound(oldErr):
			_ = s.backend.Delete(key)
		default:
			// Existence unknown (the snapshot read failed): deleting
			// could destroy a committed blob, so leave the bytes for
			// fsck.
		}
		return err
	}
	s.mu.Lock()
	s.stats.PutOps++
	s.stats.BytesWritten += int64(len(data))
	s.mu.Unlock()
	if s.clock != nil {
		s.clock.Advance(s.model.WriteCost(len(data)))
	}
	return nil
}

// Get returns the blob stored under key, verified against its recorded
// checksums. Corrupted blobs return an error wrapping
// ErrChecksumMismatch; blobs without a manifest entry (written before
// checksumming existed) are returned unverified.
func (s *Store) Get(key string) ([]byte, error) {
	data, err := s.backend.Get(key)
	if err != nil {
		if backend.IsNotFound(err) && s.HasQuarantined(key) {
			return nil, &QuarantinedError{Key: key}
		}
		return nil, err
	}
	m, ok, err := s.readManifest(key)
	if err != nil {
		return nil, err
	}
	if ok {
		if err := verifyWhole(key, m, data); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	s.stats.GetOps++
	s.stats.BytesRead += int64(len(data))
	s.mu.Unlock()
	if s.clock != nil {
		s.clock.Advance(s.model.ReadCost(len(data)))
	}
	return data, nil
}

// GetRange returns length bytes starting at off of the blob under key.
// Like Get it counts as one read operation, and only the requested
// bytes are charged — the point of ranged reads when recovering single
// models out of a large parameter blob. Verification is chunked: the
// backend read is widened to chunk boundaries and only the chunks
// overlapping the request are checked, so a small ranged read costs at
// most one extra chunk on each side instead of the whole blob.
func (s *Store) GetRange(key string, off, length int64) ([]byte, error) {
	m, ok, err := s.readManifest(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		data, err := s.backend.GetRange(key, off, length)
		if err != nil {
			if backend.IsNotFound(err) && s.HasQuarantined(key) {
				return nil, &QuarantinedError{Key: key}
			}
			return nil, err
		}
		s.chargeRead(len(data))
		return data, nil
	}
	if off < 0 || length < 0 || off+length > m.Size {
		return nil, &backend.RangeError{Key: key, Off: off, Length: length, Size: m.Size}
	}
	// Widen to chunk boundaries.
	start := off / m.ChunkSize * m.ChunkSize
	end := off + length
	if rem := end % m.ChunkSize; rem != 0 {
		end += m.ChunkSize - rem
	}
	if end > m.Size {
		end = m.Size
	}
	wide, err := s.backend.GetRange(key, start, end-start)
	if err != nil {
		return nil, err
	}
	for i := start / m.ChunkSize; i*m.ChunkSize < end; i++ {
		cs := i * m.ChunkSize
		ce := cs + m.ChunkSize
		if ce > end {
			ce = end
		}
		if int(i) >= len(m.CRCs) {
			return nil, &ChecksumError{Key: key, Chunk: -1}
		}
		if got := crc32.Checksum(wide[cs-start:ce-start], castagnoli); got != m.CRCs[i] {
			return nil, &ChecksumError{Key: key, Chunk: int(i), Want: m.CRCs[i], Got: got}
		}
	}
	data := wide[off-start : off-start+length]
	s.chargeRead(len(data))
	return data, nil
}

// chargeRead accounts one read of n bytes.
func (s *Store) chargeRead(n int) {
	s.mu.Lock()
	s.stats.GetOps++
	s.stats.BytesRead += int64(n)
	s.mu.Unlock()
	if s.clock != nil {
		s.clock.Advance(s.model.ReadCost(n))
	}
}

// Size returns the stored blob's length in bytes without reading it.
func (s *Store) Size(key string) (int64, error) { return s.backend.Size(key) }

// Delete removes key and its manifest entry; missing keys are not an
// error.
func (s *Store) Delete(key string) error {
	if err := s.backend.Delete(key); err != nil {
		return err
	}
	return s.backend.Delete(manifestPrefix + key)
}

// Keys returns all stored blob keys in sorted order. Manifest entries
// are internal and not listed.
func (s *Store) Keys() ([]string, error) {
	keys, err := s.backend.Keys()
	if err != nil {
		return nil, err
	}
	out := keys[:0]
	for _, k := range keys {
		if !strings.HasPrefix(k, manifestPrefix) && !strings.HasPrefix(k, QuarantinePrefix) {
			out = append(out, k)
		}
	}
	return out, nil
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the traffic counters.
func (s *Store) ResetStats() {
	s.mu.Lock()
	s.stats = Stats{}
	s.mu.Unlock()
}
