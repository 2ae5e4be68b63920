package cas

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mmm-go/mmm/internal/codec"
	"github.com/mmm-go/mmm/internal/core/pool"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
)

// ErrCorrupt is wrapped by read errors when stored bytes can no longer
// be turned into the payload they promise — a damaged raw chunk, a
// framed chunk naming an unregistered codec, an encoded body that fails
// to decode, or a recipe that is garbled or whose chunk sizes do not
// add up. Callers map it onto their own corruption sentinel.
var ErrCorrupt = errors.New("cas: corrupt chunk")

// Key-space layout inside the blob store. Everything is under Prefix,
// which the blob-store consumers (fsck's orphan analysis, prune's
// prefix enumeration) treat as a reserved namespace.
const (
	Prefix       = "cas/"
	chunkPrefix  = Prefix + "chunks/"
	recipePrefix = Prefix + "recipes/"
)

// Dedup metric names exposed on /metrics.
const (
	// MetricChunksTotal counts chunks newly written to the store.
	MetricChunksTotal = "mmm_cas_chunks_total"
	// MetricDedupBytesTotal counts logical bytes that cost zero blob
	// writes because their chunk was already present (the dedup win).
	MetricDedupBytesTotal = "mmm_cas_dedup_bytes_total"
	// MetricGCDeletedTotal counts chunks deleted by GC.
	MetricGCDeletedTotal = "mmm_cas_gc_deleted_total"
	// MetricDedupRatio is logical bytes stored per 100 physical bytes
	// written, cumulative over the store's lifetime (an integer gauge:
	// 100 = no dedup, 250 = 2.5× dedup).
	MetricDedupRatio = "mmm_cas_dedup_ratio_percent"
)

// ChunkKey returns the blob key of the chunk with the given SHA-256
// hex hash, fanned out by the first two hex digits.
func ChunkKey(hash string) string { return chunkPrefix + hash[:2] + "/" + hash }

// RecipeKey returns the blob key of the recipe for a logical key.
func RecipeKey(logical string) string { return recipePrefix + logical }

// LogicalKey inverts RecipeKey.
func LogicalKey(recipeKey string) (string, bool) {
	if !strings.HasPrefix(recipeKey, recipePrefix) {
		return "", false
	}
	return recipeKey[len(recipePrefix):], true
}

// ChunkHash extracts the hash from a chunk key; ok is false for keys
// outside the chunk namespace or with a malformed fan-out.
func ChunkHash(key string) (hash string, ok bool) {
	rest, found := strings.CutPrefix(key, chunkPrefix)
	if !found {
		return "", false
	}
	fan, hash, found := strings.Cut(rest, "/")
	if !found || len(fan) != 2 || len(hash) != sha256.Size*2 || !strings.HasPrefix(hash, fan) {
		return "", false
	}
	return hash, true
}

// IsKey reports whether key lives in the reserved CAS namespace.
func IsKey(key string) bool { return strings.HasPrefix(key, Prefix) }

// RecipeChunk is one chunk reference inside a recipe, in blob order.
// Hash addresses the LOGICAL (uncompressed) chunk bytes and Size is
// their logical length: content addressing is codec-independent, so a
// chunk written by a zlib saver deduplicates against the same bytes
// written by a tlz saver. How a chunk body is stored on disk is the
// chunk's own business (see the frame format in getChunk).
type RecipeChunk struct {
	Hash string `json:"h"`
	Size int64  `json:"s"`
}

// Recipe reassembles a logical blob from its chunks. Codec records the
// codec ID the writer was configured with ("" for pre-codec recipes
// and uncompressed writes); it is introspective metadata — readers
// never need it, because chunk bodies are self-describing.
type Recipe struct {
	Size   int64         `json:"size"`
	Chunks []RecipeChunk `json:"chunks"`
	Codec  string        `json:"codec,omitempty"`
}

// Encoding selects per-chunk compression for a Put. The zero value
// stores chunk bodies raw, matching every store written before codecs
// existed.
type Encoding struct {
	// Codec compresses each newly written chunk body, keeping the
	// encoded form only when it is strictly smaller than the raw
	// chunk. nil (or the "none" codec) stores bodies raw.
	Codec codec.Codec
	// Workers bounds the encode fan-out across chunks; <= 0 uses one
	// worker per CPU.
	Workers int
}

// encoder returns the effective codec of the Encoding, nil when
// encoding is a no-op.
func (e Encoding) encoder() codec.Codec {
	if e.Codec == nil || e.Codec.ID() == codec.NoneID {
		return nil
	}
	return e.Codec
}

// PutResult reports the physical cost of one deduplicated write.
type PutResult struct {
	// PhysicalBytes is what the write actually cost the store: newly
	// written chunk bytes plus the recipe document.
	PhysicalBytes int64
	// WriteOps counts chunk and recipe blob writes.
	WriteOps int64
	// NewChunks is how many chunks this write added to the store.
	NewChunks int
	// DedupBytes is how many logical bytes were skipped because their
	// chunk was already present.
	DedupBytes int64
	// Recipe is the recipe a deduplicated write stored (zero for
	// PutRaw), so callers that derive from it — the per-set chunk index
	// — need not read it back.
	Recipe Recipe
}

// GCReport summarizes one garbage-collection pass.
type GCReport struct {
	// ChunksDeleted counts chunks removed (listed by no recipe).
	ChunksDeleted int `json:"chunks_deleted"`
	// BytesFreed is the payload bytes of the deleted chunks.
	BytesFreed int64 `json:"bytes_freed"`
	// ChunksKept counts chunks that survived the pass.
	ChunksKept int `json:"chunks_kept"`
}

// Store is the logical-blob store over one blob store, and the only
// code that knows a logical blob is either one raw blob or a recipe
// over shared chunks: Get, GetRange, Size and Delete resolve a key
// either way, PutRaw and Put choose how it is written. For returns the
// Store of a blob store.
//
// Chunk liveness is derived, never persisted: a chunk is live while a
// stored recipe lists it or an in-flight Put or read holds it. The
// census counts the recipes in memory, so a store has one writing
// process — a census does not see saves another process makes to the
// same directory (nor did pending, pinned or core's set-ID claims).
type Store struct {
	blobs *blobstore.Store

	// mu guards the census, pending and pinned, and serializes the
	// delete-at-zero decisions that depend on them.
	mu sync.Mutex
	// census counts, per chunk hash, the stored recipes that list it.
	// It is built on first use (censusTried) and rebuilt by every GC
	// pass, and is never below the true count: Put adds after its
	// recipe is written, release subtracts under mu together with the
	// recipe delete. nil when the last build met an unreadable recipe;
	// then nothing is freed eagerly until a GC pass (after fsck) builds
	// it again.
	census      map[string]int
	censusTried bool
	// pending counts in-flight Puts per chunk hash. A chunk some Put
	// has registered must not be eagerly deleted even at census zero:
	// the Put may have skipped writing it because it existed and is
	// about to list it in its recipe.
	pending map[string]int
	// pinned counts in-flight reads per chunk hash (see Pin). Pinned
	// chunks are shielded from eager deletion exactly like pending
	// ones; unlike pending, pins are taken by readers.
	pinned map[string]int

	// cache is the optional serving-tier object cache (see cache.go);
	// nil until a consumer calls EnableCache.
	cache cachePointer

	// Cumulative logical/physical byte counters feeding the dedup
	// ratio gauge.
	logical, physical atomic.Int64
}

// For returns the Store of b. b creates it on first use and holds it
// from then on, so everyone working on b shares one census, one set of
// pins and one cache, and all of it is collected with b.
func For(b *blobstore.Store) *Store { return b.View(newStore).(*Store) }

func newStore(b *blobstore.Store) any {
	return &Store{blobs: b, pending: map[string]int{}, pinned: map[string]int{}}
}

// registry resolves a caller-supplied metrics registry, describing the
// CAS families on first use.
func registry(reg *obs.Registry) *obs.Registry {
	if reg == nil {
		reg = obs.Default
	}
	reg.Describe(MetricChunksTotal, "Chunks newly written to the content-addressed store.")
	reg.Describe(MetricDedupBytesTotal, "Logical bytes skipped because their chunk already existed.")
	reg.Describe(MetricGCDeletedTotal, "Chunks deleted by CAS garbage collection.")
	reg.Describe(MetricDedupRatio, "Cumulative logical bytes stored per 100 physical bytes written.")
	return reg
}

func hashChunk(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// countRecipes lists the store once and returns the census its recipes
// imply together with the hash of every stored chunk — the walk GC
// marks with and the census is built from. It fails on a recipe it
// cannot read. Callers hold mu.
func (s *Store) countRecipes() (census map[string]int, chunks []string, err error) {
	keys, err := s.blobs.Keys()
	if err != nil {
		return nil, nil, err
	}
	census = map[string]int{}
	for _, k := range keys {
		if h, ok := ChunkHash(k); ok {
			chunks = append(chunks, h)
			continue
		}
		logical, ok := LogicalKey(k)
		if !ok {
			continue
		}
		r, _, err := s.readRecipe(logical)
		if backend.IsNotFound(err) {
			continue // a failed Put's undo removed it since the listing
		}
		if err != nil {
			return nil, nil, err
		}
		for _, h := range distinctHashes(r.Chunks) {
			census[h]++
		}
	}
	return census, chunks, nil
}

// censusLocked returns the census, building it on first use; nil when
// a stored recipe was unreadable. Callers hold mu.
func (s *Store) censusLocked() map[string]int {
	if !s.censusTried {
		s.censusTried = true
		s.census, _, _ = s.countRecipes()
	}
	return s.census
}

// Put stores data under the logical key: chunks it, writes only the
// chunks the store does not already have, writes the recipe, and then
// counts the recipe in the census. A failed Put undoes exactly what it
// did (its recipe, its genuinely new chunks) so a shared chunk is never
// deleted by a save that never listed it.
//
// The census exists before the first write and is added to only after
// the recipe write, so a GC pass rebuilding it in between can only
// over-count, never lose the recipe. Debris from a crash (orphan
// chunks, an unreferenced recipe) is exactly what fsck's CAS pass
// detects and repairs.
func (s *Store) Put(key string, data []byte, chunkSize int, hints Hints, reg *obs.Registry) (PutResult, error) {
	return s.PutEncoded(key, data, chunkSize, hints, Encoding{}, reg)
}

// PutEncoded is Put with per-chunk compression: newly written chunk
// bodies are encoded with enc.Codec (fanned out across enc.Workers)
// and stored framed — one wire-ID byte followed by the encoded payload
// — whenever that is strictly smaller than the raw chunk. Content
// addresses and recipes always describe the logical bytes, so
// deduplication is codec-independent and a store may freely mix codecs
// across writes.
func (s *Store) PutEncoded(key string, data []byte, chunkSize int, hints Hints, enc Encoding, reg *obs.Registry) (PutResult, error) {
	reg = registry(reg)
	chunks := Chunks(data, chunkSize, hints)
	recipe := Recipe{Size: int64(len(data)), Chunks: make([]RecipeChunk, len(chunks))}
	if enc.Codec != nil {
		recipe.Codec = enc.Codec.ID()
	}
	distinct := make([]string, 0, len(chunks))
	sizeOf := map[string]int64{}
	for i, c := range chunks {
		h := hashChunk(c.Data)
		recipe.Chunks[i] = RecipeChunk{Hash: h, Size: int64(len(c.Data))}
		if _, ok := sizeOf[h]; !ok {
			distinct = append(distinct, h)
			sizeOf[h] = int64(len(c.Data))
		}
	}

	// Shield every chunk this Put relies on from concurrent eager
	// deletion before we decide which ones already exist.
	s.mu.Lock()
	s.censusLocked()
	for _, h := range distinct {
		s.pending[h]++
	}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		for _, h := range distinct {
			if s.pending[h]--; s.pending[h] <= 0 {
				delete(s.pending, h)
			}
		}
		s.mu.Unlock()
	}()

	var res PutResult
	chunkData := map[string][]byte{}
	for i, c := range chunks {
		if _, dup := chunkData[recipe.Chunks[i].Hash]; !dup {
			chunkData[recipe.Chunks[i].Hash] = c.Data
		}
	}
	var newChunks []string
	undo := func(recipeWritten bool) {
		if recipeWritten {
			_ = s.blobs.Delete(RecipeKey(key))
			s.invalidateRecipe(key)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.census == nil {
			return // liveness unknown: GC reclaims the new chunks
		}
		for _, h := range newChunks {
			if s.census[h] == 0 && s.pending[h] == 1 && s.pinned[h] == 0 {
				_ = s.blobs.Delete(ChunkKey(h))
				s.invalidateChunk(h)
			}
		}
	}

	missing := make([]string, 0, len(distinct))
	for _, h := range distinct {
		_, err := s.blobs.Size(ChunkKey(h))
		switch {
		case err == nil:
		case backend.IsNotFound(err):
			missing = append(missing, h)
		default:
			undo(false)
			return PutResult{}, fmt.Errorf("cas: probing chunk %s: %w", h, err)
		}
	}

	// Encode and store the missing chunk bodies, fanned out across the
	// worker pool: each task compresses one chunk and immediately
	// writes it, so one chunk's encode overlaps another chunk's store
	// latency. The hashes in missing are distinct and every slot is
	// disjoint, so the stored bytes are identical at any concurrency.
	// An encoded body is kept only when it shrinks; otherwise the raw
	// chunk is stored exactly as a pre-codec store would have.
	// bodyLen[i] > 0 records a completed write (chunk bodies are never
	// empty) so undo stays exact even when a later task fails. Plain
	// Put call sites (no codec, no worker count) keep their serial,
	// index-ordered writes.
	c := enc.encoder()
	workers := enc.Workers
	if workers <= 0 {
		if c != nil {
			workers = pool.DefaultWorkers()
		} else {
			workers = 1
		}
	}
	bodyLen := make([]int64, len(missing))
	var logicalIn, keptOut atomic.Int64
	start := time.Now()
	runErr := pool.Run(context.Background(), workers, len(missing), func(i int) error {
		h := missing[i]
		body := chunkData[h]
		if c != nil {
			framed, err := encodeFrame(c, body)
			if err != nil {
				return fmt.Errorf("cas: encoding chunk %s with %s: %w", h, c.ID(), err)
			}
			logicalIn.Add(int64(len(body)))
			if framed != nil {
				body = framed
			}
			keptOut.Add(int64(len(body)))
		}
		if err := s.blobs.Put(ChunkKey(h), body); err != nil {
			return fmt.Errorf("cas: writing chunk %s: %w", h, err)
		}
		bodyLen[i] = int64(len(body))
		return nil
	})
	if c != nil && len(missing) > 0 {
		codec.ObserveEncode(reg, c.ID(), int(logicalIn.Load()), int(keptOut.Load()), time.Since(start))
	}

	var newBytes int64
	for i, h := range missing {
		if bodyLen[i] == 0 {
			continue
		}
		newChunks = append(newChunks, h)
		newBytes += sizeOf[h]
		res.PhysicalBytes += bodyLen[i]
		res.WriteOps++
		res.NewChunks++
	}
	if runErr != nil {
		undo(false)
		return PutResult{}, runErr
	}
	// Everything not physically written — repeats within this blob and
	// chunks other blobs already stored — was deduplicated.
	res.DedupBytes = int64(len(data)) - newBytes

	recipeBytes, err := json.Marshal(recipe)
	if err != nil {
		undo(false)
		return PutResult{}, fmt.Errorf("cas: marshaling recipe for %q: %w", key, err)
	}
	if err := s.blobs.Put(RecipeKey(key), recipeBytes); err != nil {
		undo(true)
		return PutResult{}, fmt.Errorf("cas: writing recipe for %q: %w", key, err)
	}
	// An overwrite replaced the recipe: drop any cached parse of the
	// old one.
	s.invalidateRecipe(key)
	res.PhysicalBytes += int64(len(recipeBytes))
	res.WriteOps++
	res.Recipe = recipe

	s.mu.Lock()
	if s.census != nil {
		for _, h := range distinct {
			s.census[h]++
		}
	}
	s.mu.Unlock()

	reg.Counter(MetricChunksTotal).Add(int64(res.NewChunks))
	reg.Counter(MetricDedupBytesTotal).Add(res.DedupBytes)
	logical := s.logical.Add(int64(len(data)))
	physical := s.physical.Add(res.PhysicalBytes)
	if physical > 0 {
		reg.Gauge(MetricDedupRatio).Set(logical * 100 / physical)
	}
	return res, nil
}

// readRecipe loads and validates the recipe of a logical key. The
// error preserves backend.IsNotFound for missing recipes.
func (s *Store) readRecipe(key string) (Recipe, []byte, error) {
	raw, err := s.blobs.Get(RecipeKey(key))
	if err != nil {
		return Recipe{}, nil, err
	}
	r, err := DecodeRecipe(raw)
	if err != nil {
		return Recipe{}, nil, fmt.Errorf("cas: recipe for %q: %w", key, err)
	}
	return r, raw, nil
}

// DecodeRecipe parses and validates recipe bytes. Bytes that are not a
// consistent recipe fail with an error wrapping ErrCorrupt.
func DecodeRecipe(raw []byte) (Recipe, error) {
	var r Recipe
	if err := json.Unmarshal(raw, &r); err != nil {
		return Recipe{}, fmt.Errorf("cas: garbled recipe: %v: %w", err, ErrCorrupt)
	}
	var total int64
	for _, c := range r.Chunks {
		if len(c.Hash) != sha256.Size*2 || c.Size <= 0 {
			return Recipe{}, fmt.Errorf("cas: garbled recipe entry %q/%d: %w", c.Hash, c.Size, ErrCorrupt)
		}
		total += c.Size
	}
	if total != r.Size || r.Size < 0 {
		return Recipe{}, fmt.Errorf("cas: recipe chunk sizes sum to %d, want %d: %w", total, r.Size, ErrCorrupt)
	}
	return r, nil
}

// Recipe returns the stored recipe for a logical key — the
// introspective view of how the blob is chunked and which codec its
// bodies were encoded with.
func (s *Store) Recipe(key string) (Recipe, error) {
	r, _, err := s.readRecipe(key)
	return r, err
}

// PutRaw stores data under key as one raw blob, unchunked — the write
// of saves without dedup, and of small derived artifacts (the per-set
// chunk index) that are not worth chunking.
func (s *Store) PutRaw(key string, data []byte) (PutResult, error) {
	if err := s.blobs.Put(key, data); err != nil {
		return PutResult{}, err
	}
	s.invalidateIndex(key)
	return PutResult{PhysicalBytes: int64(len(data)), WriteOps: 1}, nil
}

// recipeOf resolves the recipe of a logical key that has no raw blob.
// rawErr is the raw blob's NotFound; it is what the caller gets when
// there is no recipe either, so the error names the logical key.
func (s *Store) recipeOf(key string, rawErr error) (Recipe, error) {
	r, err := s.readRecipeCached(key)
	if backend.IsNotFound(err) {
		return Recipe{}, rawErr
	}
	return r, err
}

// Size returns the logical size of the blob stored under key.
func (s *Store) Size(key string) (int64, error) {
	n, err := s.blobs.Size(key)
	if !backend.IsNotFound(err) {
		return n, err
	}
	// Read from the store, not the cache: VerifyStore sizes every blob
	// to notice a recipe that no longer parses.
	r, _, rerr := s.readRecipe(key)
	if backend.IsNotFound(rerr) {
		return 0, err
	}
	return r.Size, rerr
}

// encodeFrame returns the framed encoded body of raw under c — the
// codec's wire byte followed by the encoded payload — or nil when the
// frame would not be strictly smaller than the raw chunk, in which
// case the caller stores raw bytes. Strict shrinkage is what makes
// stored bodies unambiguous: a raw body always has exactly the logical
// length, a framed body never does.
func encodeFrame(c codec.Codec, raw []byte) ([]byte, error) {
	framed := make([]byte, 1, len(raw))
	framed[0] = c.Wire()
	framed, err := c.Encode(framed, raw)
	if err != nil {
		return nil, err
	}
	if len(framed) >= len(raw) {
		return nil, nil
	}
	return framed, nil
}

// getChunk reads one chunk body and returns the logical bytes its
// content address promises — a defense-in-depth check on top of the
// blob store's CRC32C manifests.
func (s *Store) getChunk(hash string, want int64) ([]byte, error) {
	data, err := s.blobs.Get(ChunkKey(hash))
	if err != nil {
		if blobstore.IsQuarantined(err) {
			// The chunk's bytes were moved to quarantine after failing
			// verification: surface it as corruption, not absence, so
			// readers fail fast instead of treating the set as missing.
			return nil, fmt.Errorf("%w: chunk %s is quarantined: %v", ErrCorrupt, hash, err)
		}
		return nil, fmt.Errorf("cas: reading chunk %s: %w", hash, err)
	}
	return decodeChunkBody(hash, want, data)
}

// decodeChunkBody turns a stored chunk body back into logical bytes.
// Bodies are self-describing: a body of exactly the logical size that
// hashes to the content address is raw (the only format pre-codec
// stores ever wrote); anything else must be a frame — wire-ID byte
// plus encoded payload — that decodes to bytes matching the address.
// Everything that fits neither reading is damage.
func decodeChunkBody(hash string, want int64, body []byte) ([]byte, error) {
	if int64(len(body)) == want && hashChunk(body) == hash {
		return body, nil
	}
	if len(body) == 0 || int64(len(body)) >= want {
		return nil, fmt.Errorf("%w: chunk %s does not match its content address", ErrCorrupt, hash)
	}
	c, err := codec.ByWire(body[0])
	if err != nil {
		return nil, fmt.Errorf("%w: chunk %s: %v", ErrCorrupt, hash, err)
	}
	start := time.Now()
	out, err := c.Decode(body[1:], int(want))
	if err != nil {
		return nil, fmt.Errorf("%w: chunk %s (%s): %v", ErrCorrupt, hash, c.ID(), err)
	}
	if hashChunk(out) != hash {
		return nil, fmt.Errorf("%w: chunk %s (%s): decoded bytes do not match the content address", ErrCorrupt, hash, c.ID())
	}
	codec.ObserveDecode(nil, c.ID(), time.Since(start))
	return out, nil
}

// VerifyChunk reads a chunk's stored body and verifies it still yields
// the logical bytes its content address promises. fsck uses it to tell
// compressed chunk bodies (whose stored size legitimately differs from
// the recipe's logical size) apart from genuine damage.
func (s *Store) VerifyChunk(hash string, logicalSize int64) error {
	_, err := s.getChunk(hash, logicalSize)
	return err
}

// HasChunk reports whether a chunk body is stored under the content
// address. The pull client uses it to diff a remote recipe against the
// local cache before fetching.
func (s *Store) HasChunk(hash string) bool {
	_, err := s.blobs.Size(ChunkKey(hash))
	return err == nil
}

// PutChunk stores logical chunk bytes under their content address after
// verifying the digest, so a corrupted or tampered body can never enter
// the store under a hash it does not match. It is the ingestion path of
// pull-mode caches and mirrors: chunks arrive individually, unreferenced
// by any recipe, and are stored raw. Writing an already-present chunk is
// a no-op (content addressing makes the write idempotent).
func (s *Store) PutChunk(hash string, data []byte) error {
	if hashChunk(data) != hash {
		return fmt.Errorf("%w: chunk body does not match content address %s", ErrCorrupt, hash)
	}
	if s.HasChunk(hash) {
		return nil
	}
	if err := s.blobs.Put(ChunkKey(hash), data); err != nil {
		return fmt.Errorf("cas: writing chunk %s: %w", hash, err)
	}
	return nil
}

// Get returns the logical blob stored under key: the raw blob when
// there is one, else the blob its recipe reassembles. A key with
// neither fails with the raw blob's NotFound. A recipe is a promise
// that its chunks exist, so a chunk it names that is absent or
// quarantined fails with ErrCorrupt, never NotFound.
//
// Chunk fetch and decode fan out across one worker per CPU into
// disjoint slots of the preallocated result, so decompression of large
// blobs scales with cores while remaining byte-identical to a serial
// read. The chunks being read are pinned for the duration, so a
// concurrent prune or GC of the last other reference cannot delete
// them mid-read.
func (s *Store) Get(key string) ([]byte, error) {
	data, err := s.blobs.Get(key)
	if !backend.IsNotFound(err) {
		return data, err
	}
	r, err := s.recipeOf(key, err)
	if err != nil {
		return nil, err
	}
	pins := distinctHashes(r.Chunks)
	s.Pin(pins...)
	defer s.Unpin(pins...)
	out := make([]byte, r.Size)
	offs := make([]int64, len(r.Chunks))
	var pos int64
	for i, c := range r.Chunks {
		offs[i] = pos
		pos += c.Size
	}
	err = pool.Run(context.Background(), pool.DefaultWorkers(), len(r.Chunks), func(i int) error {
		c := r.Chunks[i]
		data, err := s.recipeChunk(c.Hash, c.Size)
		if err != nil {
			return err
		}
		copy(out[offs[i]:offs[i]+c.Size], data)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// distinctHashes returns each chunk hash once, in first-seen order.
func distinctHashes(chunks []RecipeChunk) []string {
	out := make([]string, 0, len(chunks))
	seen := make(map[string]struct{}, len(chunks))
	for _, c := range chunks {
		if _, ok := seen[c.Hash]; !ok {
			seen[c.Hash] = struct{}{}
			out = append(out, c.Hash)
		}
	}
	return out
}

// GetRange reads length bytes at offset off of the logical blob under
// key, fetching only the chunks the range overlaps when the blob is
// chunked. Errors are classified as in Get.
func (s *Store) GetRange(key string, off, length int64) ([]byte, error) {
	data, err := s.blobs.GetRange(key, off, length)
	if !backend.IsNotFound(err) {
		return data, err
	}
	r, err := s.recipeOf(key, err)
	if err != nil {
		return nil, err
	}
	if off < 0 || length < 0 || off+length > r.Size {
		return nil, &backend.RangeError{Key: key, Off: off, Length: length, Size: r.Size}
	}
	return s.GetIndexed(&Index{Size: r.Size, Chunks: r.Chunks}, off, length)
}

// GetIndexed reads [off, off+length) of the chunked blob ix describes,
// fetching exactly the chunks the range overlaps — pinned against
// concurrent release and GC, and served through the cache. The result
// is a fresh buffer. An index is a rendition of a recipe: a range it
// cannot locate and a chunk it names that is gone are both ErrCorrupt.
func (s *Store) GetIndexed(ix *Index, off, length int64) ([]byte, error) {
	spans, err := ix.Locate(off, length)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, ErrCorrupt)
	}
	hashes := make([]string, len(spans))
	for i, sp := range spans {
		hashes[i] = sp.Hash
	}
	s.Pin(hashes...)
	defer s.Unpin(hashes...)
	out := make([]byte, 0, length)
	for _, sp := range spans {
		data, err := s.recipeChunk(sp.Hash, sp.Size)
		if err != nil {
			return nil, err
		}
		out = append(out, data[sp.From:sp.To]...)
	}
	return out, nil
}

// recipeChunk reads a chunk on behalf of a recipe or index naming it.
func (s *Store) recipeChunk(hash string, size int64) ([]byte, error) {
	data, err := s.getChunkCached(hash, size)
	if backend.IsNotFound(err) {
		return nil, fmt.Errorf("%w: chunk %s is listed by a recipe but missing", ErrCorrupt, hash)
	}
	return data, err
}

// Delete removes the logical blob under key and returns the physical
// bytes freed: a raw blob frees its own size; a chunked blob gives up
// its references and frees only its recipe plus the chunks nothing
// else shares. A key with neither frees nothing and is not an error.
func (s *Store) Delete(key string) (freed int64, err error) {
	size, err := s.blobs.Size(key)
	if backend.IsNotFound(err) {
		return s.release(key)
	}
	if err != nil {
		return 0, err
	}
	err = s.blobs.Delete(key)
	s.invalidateIndex(key)
	return size, err
}

// release deletes the recipe of the logical key and takes it out of
// the census. Chunks no other recipe lists (and that no in-flight Put
// or read holds) are deleted eagerly; the returned count is the
// physical bytes actually freed, recipe included. Releasing a key with
// no recipe is a no-op — retried prunes and crash replays must
// converge.
//
// mu is held across the recipe delete and the census decrements, so a
// GC pass cannot rebuild the census in between and count the recipe
// out twice. A store whose census could not be built frees only the
// recipe; GC reclaims its chunks once fsck has repaired the store.
func (s *Store) release(key string) (freed int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, raw, err := s.readRecipe(key)
	if err != nil {
		if backend.IsNotFound(err) {
			return 0, nil
		}
		return 0, err
	}
	census := s.censusLocked()
	if err := s.blobs.Delete(RecipeKey(key)); err != nil {
		return 0, fmt.Errorf("cas: deleting recipe for %q: %w", key, err)
	}
	s.invalidateRecipe(key)
	freed = int64(len(raw))
	if census == nil {
		return freed, nil
	}
	for _, h := range distinctHashes(r.Chunks) {
		if census[h]--; census[h] > 0 {
			continue
		}
		delete(census, h)
		if s.pending[h] > 0 || s.pinned[h] > 0 {
			continue
		}
		// Report the stored (possibly compressed) size, not the logical
		// one: freed bytes are a physical-occupancy number.
		size, serr := s.blobs.Size(ChunkKey(h))
		if err := s.blobs.Delete(ChunkKey(h)); err != nil {
			return freed, fmt.Errorf("cas: deleting chunk %s: %w", h, err)
		}
		s.invalidateChunk(h)
		if serr == nil {
			freed += size
		}
	}
	return freed, nil
}

// GC counts the recipes, then sweeps: it deletes every stored chunk no
// recipe lists and no in-flight Put or read holds, and keeps the count
// as the new census. It is the safety net for crash debris release
// could not see; a chunk listed by any recipe — even an uncommitted
// one — is never collected. GC fails without deleting anything if a
// recipe is unreadable: run fsck first.
func (s *Store) GC(reg *obs.Registry) (GCReport, error) {
	reg = registry(reg)
	s.mu.Lock()
	defer s.mu.Unlock()

	census, chunks, err := s.countRecipes()
	if err != nil {
		return GCReport{}, fmt.Errorf("cas: gc: %w", err)
	}
	s.census, s.censusTried = census, true

	var report GCReport
	for _, h := range chunks {
		if census[h] > 0 || s.pending[h] > 0 || s.pinned[h] > 0 {
			report.ChunksKept++
			continue
		}
		size, err := s.blobs.Size(ChunkKey(h))
		if err != nil && !backend.IsNotFound(err) {
			return report, err
		}
		if err := s.blobs.Delete(ChunkKey(h)); err != nil {
			return report, err
		}
		s.invalidateChunk(h)
		report.ChunksDeleted++
		report.BytesFreed += size
	}
	reg.Counter(MetricGCDeletedTotal).Add(int64(report.ChunksDeleted))
	return report, nil
}

// Scan is the raw CAS inventory fsck and du build their checks on.
type Scan struct {
	// Recipes maps logical keys to their parsed recipes.
	Recipes map[string]Recipe
	// BadRecipes maps logical keys to the parse error of their recipe.
	BadRecipes map[string]error
	// Chunks maps chunk hashes to their stored payload size.
	Chunks map[string]int64
	// RecipeBytes is the total size of all recipe documents.
	RecipeBytes int64
}

// ScanStore inventories the CAS namespace of a blob store without
// modifying anything.
func ScanStore(b *blobstore.Store) (*Scan, error) {
	keys, err := b.Keys()
	if err != nil {
		return nil, err
	}
	scan := &Scan{
		Recipes:    map[string]Recipe{},
		BadRecipes: map[string]error{},
		Chunks:     map[string]int64{},
	}
	for _, k := range keys {
		switch {
		case strings.HasPrefix(k, recipePrefix):
			logical, _ := LogicalKey(k)
			raw, err := b.Get(k)
			if err != nil {
				scan.BadRecipes[logical] = err
				continue
			}
			scan.RecipeBytes += int64(len(raw))
			r, err := DecodeRecipe(raw)
			if err != nil {
				scan.BadRecipes[logical] = err
				continue
			}
			scan.Recipes[logical] = r
		case strings.HasPrefix(k, chunkPrefix):
			h, ok := ChunkHash(k)
			if !ok {
				continue
			}
			size, err := b.Size(k)
			if err != nil {
				size = 0
			}
			scan.Chunks[h] = size
		}
	}
	return scan, nil
}

// Keys lists the logical blob keys under prefix: raw blobs plus the
// logical keys of recipes. Chunks and recipes themselves are physical
// storage and never listed.
func (s *Store) Keys(prefix string) ([]string, error) {
	keys, err := s.blobs.Keys()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, k := range keys {
		if logical, ok := LogicalKey(k); ok {
			k = logical
		} else if IsKey(k) {
			continue
		}
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out, nil
}
