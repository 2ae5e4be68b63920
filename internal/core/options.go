package core

import (
	"fmt"

	"github.com/mmm-go/mmm/internal/codec"
	"github.com/mmm-go/mmm/internal/core/pool"
	"github.com/mmm-go/mmm/internal/obs"
)

// settings holds the resolved construction options shared by all
// approaches.
type settings struct {
	// workers bounds the approach's per-model concurrency.
	workers int
	// metrics is the registry operations record into (obs.Default when
	// unset).
	metrics *obs.Registry
	// dedup routes blob writes through the content-addressed chunk
	// store.
	dedup bool
	// codec is the compression codec ID blobs are encoded with (""
	// means none; see WithCodec).
	codec string
	// cacheBytes sizes the in-memory serving-tier chunk cache attached
	// to the blob store (0 means no cache; see WithChunkCache).
	cacheBytes int64
}

// Option configures an approach at construction time.
type Option func(*settings)

// WithConcurrency bounds the number of workers an approach uses for
// per-model work during save and recovery. The default is
// runtime.GOMAXPROCS(0). n == 1 runs everything serially on the calling
// goroutine; because parallel workers write into disjoint, pre-offset
// slots and results are committed in model-index order, every setting
// produces byte-identical artifacts and identical set IDs — only the
// wall-clock time changes. Values below 1 are treated as 1.
func WithConcurrency(n int) Option {
	return func(s *settings) {
		if n < 1 {
			n = 1
		}
		s.workers = n
	}
}

// WithMetrics directs an approach's operation metrics (TTS/TTR
// histograms, error and integrity counters) into reg instead of the
// process-wide obs.Default — the isolation tests and embedders with
// their own registries need.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *settings) { s.metrics = reg }
}

// WithDedup routes every blob the approach writes — parameter
// concatenations, architecture definitions, diff blobs, per-model
// files — through the content-addressed chunk store, so bytes shared
// with any previously saved set (unchanged models across saves,
// identical architectures, repeated diffs) are stored once and only
// referenced. Reads are always dedup-aware regardless of this option:
// recovered parameters are bit-identical either way, and one store may
// mix deduplicated and plain sets freely. SaveResult.BytesWritten
// reports physical bytes (new chunks plus the recipe), which is what
// the paper's storage-consumption metric measures.
func WithDedup() Option {
	return func(s *settings) { s.dedup = true }
}

// WithCodec selects the compression codec — by its registered ID
// ("none", "zlib", "tlz", or anything added via codec.Register) — for
// the blobs the approach writes. All four approaches honor it:
//
//   - Update encodes its diff blobs with the codec (keeping the
//     encoded form only when it is smaller), generalizing the old
//     hard-coded zlib bool.
//   - Under WithDedup, every blob's CAS chunk bodies are encoded
//     per chunk, fanned out across the WithConcurrency worker pool;
//     diff blobs are then chunk-compressed rather than pre-compressed
//     so chunk-level deduplication still sees stable boundaries.
//   - Full-snapshot parameter blobs written without dedup stay raw:
//     ranged partial recovery depends on byte offsets into them.
//
// The codec ID is persisted in set metadata, diff documents, and CAS
// recipes, and every encoded artifact is self-describing, so stores
// written with any codec — or none, including stores from before
// codecs existed — are always readable regardless of what later
// writers configure. The ID is validated when a save first runs; an
// unregistered ID fails the save.
func WithCodec(id string) Option {
	return func(s *settings) { s.codec = id }
}

// WithChunkCache attaches an in-memory serving-tier cache of at most
// bytes to the approach's blob store. The cache holds decoded chunk
// bodies (keyed by content address, admission weighted by how many
// sets share the chunk), parsed CAS recipes, and per-set chunk
// indexes, so repeated recoveries of warm sets skip both store round
// trips and codec decode work. The cache lives on the store, not the
// approach: all approaches sharing one blob store share one cache, and
// it is grow-only — the largest budget requested wins. Recovered bytes
// are identical with or without a cache; only latency changes. Values
// <= 0 leave the store uncached.
func WithChunkCache(bytes int64) Option {
	return func(s *settings) { s.cacheBytes = bytes }
}

// resolveCodec maps a configured codec ID to the codec a saveOp should
// encode with: nil for "" (unset) and "none", the registered codec
// otherwise. Called at save time because construction cannot fail.
func resolveCodec(id string) (codec.Codec, error) {
	if id == "" || id == codec.NoneID {
		return nil, nil
	}
	c, err := codec.Lookup(id)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return c, nil
}

// newSettings resolves opts over the defaults.
func newSettings(opts []Option) settings {
	s := settings{workers: pool.DefaultWorkers(), metrics: obs.Default}
	for _, o := range opts {
		o(&s)
	}
	return s
}
