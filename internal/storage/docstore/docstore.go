// Package docstore is the document store of the model management
// system: metadata, environment descriptions, provenance records, and
// diff lists live here as JSON documents in named collections. It
// plays the role MongoDB plays for MMlib.
//
// Like the blob store it is instrumented: per-document insert/read
// latencies are the mechanism behind the paper's M1-vs-server TTS/TTR
// differences ("the faster connections to the document store on the
// server setup"), and document bytes count toward storage consumption.
package docstore

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

// Stats counts a store's traffic since creation (or the last Reset).
type Stats struct {
	InsertOps    int64
	GetOps       int64
	BytesWritten int64
	BytesRead    int64
}

// Store is an instrumented JSON document store.
type Store struct {
	backend backend.Backend
	model   latency.CostModel
	clock   *latency.Clock

	mu    sync.Mutex
	stats Stats
}

// New returns a store over b, charging costs from model to clock.
// A nil clock disables latency modeling.
func New(b backend.Backend, model latency.CostModel, clock *latency.Clock) *Store {
	return &Store{backend: b, model: model, clock: clock}
}

// NewMem returns an uninstrumented in-memory store.
func NewMem() *Store {
	return New(backend.NewMem(), latency.CostModel{}, nil)
}

func docKey(collection, id string) (string, error) {
	if collection == "" || id == "" {
		return "", fmt.Errorf("docstore: collection and id must be non-empty")
	}
	if strings.Contains(collection, "/") {
		return "", fmt.Errorf("docstore: collection %q must not contain '/'", collection)
	}
	return collection + "/" + id + ".json", nil
}

// Insert marshals doc as JSON and stores it under (collection, id),
// overwriting any previous document.
func (s *Store) Insert(collection, id string, doc any) error {
	_, err := s.InsertSized(collection, id, doc)
	return err
}

// InsertSized is Insert, additionally returning the encoded document's
// byte length — the size the store's write statistics are charged with.
// Callers that attribute storage consumption to individual operations
// (e.g. a SaveResult) use it instead of diffing global counters.
func (s *Store) InsertSized(collection, id string, doc any) (int64, error) {
	key, err := docKey(collection, id)
	if err != nil {
		return 0, err
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return 0, fmt.Errorf("docstore: marshaling %s/%s: %w", collection, id, err)
	}
	if err := s.backend.Put(key, data); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.stats.InsertOps++
	s.stats.BytesWritten += int64(len(data))
	s.mu.Unlock()
	if s.clock != nil {
		s.clock.Advance(s.model.WriteCost(len(data)))
	}
	return int64(len(data)), nil
}

// Get unmarshals the document at (collection, id) into out.
func (s *Store) Get(collection, id string, out any) error {
	key, err := docKey(collection, id)
	if err != nil {
		return err
	}
	data, err := s.backend.Get(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.GetOps++
	s.stats.BytesRead += int64(len(data))
	s.mu.Unlock()
	if s.clock != nil {
		s.clock.Advance(s.model.ReadCost(len(data)))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("docstore: parsing %s/%s: %w", collection, id, err)
	}
	return nil
}

// Exists reports whether a document is stored at (collection, id),
// without reading it.
func (s *Store) Exists(collection, id string) (bool, error) {
	key, err := docKey(collection, id)
	if err != nil {
		return false, err
	}
	if _, err := s.backend.Size(key); err != nil {
		if backend.IsNotFound(err) {
			return false, nil
		}
		return false, err
	}
	return true, nil
}

// Size returns the stored document's encoded length in bytes.
func (s *Store) Size(collection, id string) (int64, error) {
	key, err := docKey(collection, id)
	if err != nil {
		return 0, err
	}
	return s.backend.Size(key)
}

// Delete removes the document at (collection, id); missing documents
// are not an error.
func (s *Store) Delete(collection, id string) error {
	key, err := docKey(collection, id)
	if err != nil {
		return err
	}
	return s.backend.Delete(key)
}

// Collections returns the names of all collections holding at least
// one document, sorted.
func (s *Store) Collections() ([]string, error) {
	keys, err := s.backend.Keys()
	if err != nil {
		return nil, err
	}
	var names []string
	for _, k := range keys {
		if i := strings.IndexByte(k, '/'); i > 0 {
			name := k[:i]
			if len(names) == 0 || names[len(names)-1] != name {
				names = append(names, name)
			}
		}
	}
	return names, nil
}

// IDs returns the ids of all documents in collection, sorted.
func (s *Store) IDs(collection string) ([]string, error) {
	keys, err := s.backend.Keys()
	if err != nil {
		return nil, err
	}
	prefix := collection + "/"
	var ids []string
	for _, k := range keys {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, ".json") {
			ids = append(ids, strings.TrimSuffix(strings.TrimPrefix(k, prefix), ".json"))
		}
	}
	return ids, nil
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
