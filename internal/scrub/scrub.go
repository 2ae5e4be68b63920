// Package scrub is the self-healing subsystem of the store: a
// rate-limited background scrubber that incrementally walks every
// persisted artifact — CAS chunk bodies, recipes, per-set chunk
// indexes, and checksummed raw blobs — re-verifying digests long
// after the write path succeeded. Corruption is moved to the blob
// store's quarantine namespace (never deleted) so reads fail fast
// instead of serving rot, and, when a healthy peer is configured, the
// damaged or missing chunk is re-fetched by content address, verified,
// and restored in place. Container registries run exactly this loop
// over content-addressed layers; a deduplicated model store needs it
// more, because one rotted shared chunk silently corrupts every model
// set whose recipe references it.
//
// The scrubber holds no locks while reading, paces itself with a
// bytes-per-second budget so foreground traffic is unaffected, and
// persists its position in the document store so a restarted process
// resumes mid-pass instead of starting over.
package scrub

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/cas"
	"github.com/mmm-go/mmm/internal/storage/docstore"
)

// Scrub metric names exposed on /metrics.
const (
	// MetricChunksVerified counts CAS chunk bodies whose digests were
	// re-verified.
	MetricChunksVerified = "mmm_scrub_chunks_verified_total"
	// MetricBytes counts stored bytes read and verified by the scrubber.
	MetricBytes = "mmm_scrub_bytes_total"
	// MetricErrorsFound counts verification failures discovered.
	MetricErrorsFound = "mmm_scrub_errors_found_total"
	// MetricRepairs counts artifacts healed from a peer.
	MetricRepairs = "mmm_scrub_repairs_total"
	// MetricQuarantined counts corrupt artifacts moved to quarantine.
	MetricQuarantined = "mmm_scrub_quarantined_total"
)

// stateCollection/stateDoc name the cursor document. The collection is
// internal bookkeeping outside any approach's namespace — fsck's set
// verification does not look at it.
const (
	stateCollection = "scrub_state"
	stateDoc        = "cursor"
)

// ChunkFetcher fetches a chunk's logical bytes by content address from
// a healthy upstream. *server.Client satisfies it; tests substitute
// fakes. The returned bytes are digest-verified again before entering
// the store, so a lying fetcher cannot do damage.
type ChunkFetcher interface {
	FetchChunk(ctx context.Context, hash string, size int64) ([]byte, error)
}

// Config tunes a Scrubber.
type Config struct {
	// RateBytesPerSec caps the scrubber's sustained read throughput so
	// verification never starves foreground reads. <= 0 disables
	// pacing.
	RateBytesPerSec int64
	// BatchKeys is how many keys one Step examines before persisting
	// the cursor. <= 0 uses 256.
	BatchKeys int
	// Fetcher, when set, enables repair-from-peer: quarantined and
	// missing chunks are re-fetched by digest and restored.
	Fetcher ChunkFetcher
	// Registry receives the mmm_scrub_* metrics; nil uses obs.Default.
	Registry *obs.Registry
	// Interval is the idle time between passes for Run. <= 0 uses
	// one minute.
	Interval time.Duration
	// OnPass, when set, is called with the report of every completed
	// pass (Run only).
	OnPass func(Report)
}

// Finding is one problem the scrubber discovered.
type Finding struct {
	// Key is the blob key the finding concerns.
	Key string `json:"key"`
	// Problem describes what failed to verify.
	Problem string `json:"problem"`
	// Quarantined reports that the corrupt bytes were moved to the
	// quarantine namespace during this pass.
	Quarantined bool `json:"quarantined,omitempty"`
	// Repaired reports that a verified replacement was restored from
	// the configured peer.
	Repaired bool `json:"repaired,omitempty"`
	// RepairError is why a repair attempt failed, if one was made.
	RepairError string `json:"repair_error,omitempty"`
}

// Report summarizes scrub progress — one Step's batch, or a whole pass
// when accumulated by RunPass.
type Report struct {
	// KeysScanned counts keys examined.
	KeysScanned int `json:"keys_scanned"`
	// ChunksVerified counts CAS chunk bodies digest-verified.
	ChunksVerified int `json:"chunks_verified"`
	// BytesVerified counts stored bytes read and verified.
	BytesVerified int64 `json:"bytes_verified"`
	// Findings lists the problems discovered, in key order.
	Findings []Finding `json:"findings,omitempty"`
	// Quarantined counts corrupt artifacts moved to quarantine.
	Quarantined int `json:"quarantined"`
	// Repaired counts artifacts healed from the peer.
	Repaired int `json:"repaired"`
	// Completed reports that the pass reached the end of the keyspace.
	Completed bool `json:"completed"`
	// Cursor is the persisted resume position after this batch ("" =
	// pass complete).
	Cursor string `json:"cursor,omitempty"`
	// DetectLatency is the time from pass start to the first finding
	// (0 when nothing was found).
	DetectLatency time.Duration `json:"detect_latency_ns,omitempty"`
	// Elapsed is wall time spent scanning.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Errors reports how many findings remain unhealed (found but not
// repaired).
func (r Report) Errors() int {
	n := 0
	for _, f := range r.Findings {
		if !f.Repaired {
			n++
		}
	}
	return n
}

// cursorDoc is the persisted scrub position.
type cursorDoc struct {
	// Key is the last key fully processed ("" = start of keyspace).
	Key string `json:"key"`
	// Pass counts completed full passes.
	Pass int `json:"pass"`
}

// Scrubber incrementally verifies one store. Safe for use by one
// goroutine at a time; Step/RunPass serialize themselves with a mutex.
type Scrubber struct {
	blobs *blobstore.Store
	docs  *docstore.Store
	cas   *cas.Store
	cfg   Config
	reg   *obs.Registry

	mu     sync.Mutex
	cursor *cursorDoc // loaded lazily; non-nil once known

	// Pass-scoped inventory of recipes: chunk hash → logical size, and
	// which chunks any recipe references. Rebuilt when a pass starts.
	chunkSizes map[string]int64

	// pacing state
	passStart  time.Time
	pacedBytes int64
}

// New returns a scrubber over the given stores. docs holds the
// persisted cursor; a nil docs keeps the cursor in memory only.
func New(blobs *blobstore.Store, docs *docstore.Store, cfg Config) *Scrubber {
	if cfg.BatchKeys <= 0 {
		cfg.BatchKeys = 256
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Minute
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.Default
	}
	reg.Describe(MetricChunksVerified, "CAS chunk bodies digest-verified by the scrubber.")
	reg.Describe(MetricBytes, "Stored bytes read and verified by the scrubber.")
	reg.Describe(MetricErrorsFound, "Verification failures discovered by the scrubber.")
	reg.Describe(MetricRepairs, "Artifacts healed from the configured peer.")
	reg.Describe(MetricQuarantined, "Corrupt artifacts moved to quarantine by the scrubber.")
	return &Scrubber{blobs: blobs, docs: docs, cas: cas.For(blobs), cfg: cfg, reg: reg}
}

// loadCursor reads the persisted position. Callers hold s.mu.
func (s *Scrubber) loadCursor() *cursorDoc {
	if s.cursor != nil {
		return s.cursor
	}
	c := &cursorDoc{}
	if s.docs != nil {
		_ = s.docs.Get(stateCollection, stateDoc, c) // missing or garbled doc = start over
		if c.Key != "" && !utf8OK(c.Key) {
			*c = cursorDoc{}
		}
	}
	s.cursor = c
	return c
}

// utf8OK guards against a garbled cursor doc steering the walk.
func utf8OK(k string) bool {
	for _, r := range k {
		if r == '�' {
			return false
		}
	}
	return true
}

// saveCursor persists the position. Callers hold s.mu.
func (s *Scrubber) saveCursor() {
	if s.docs != nil && s.cursor != nil {
		_ = s.docs.Insert(stateCollection, stateDoc, s.cursor)
	}
}

// ResetCursor abandons any mid-pass position so the next Step starts a
// fresh pass from the beginning of the keyspace.
func (s *Scrubber) ResetCursor() {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.loadCursor()
	c.Key = ""
	s.saveCursor()
}

// Pass returns the number of completed full passes.
func (s *Scrubber) Pass() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadCursor().Pass
}

// pace sleeps long enough to keep the pass's cumulative read rate
// under the configured budget.
func (s *Scrubber) pace(ctx context.Context, n int64) error {
	if s.cfg.RateBytesPerSec <= 0 {
		return nil
	}
	s.pacedBytes += n
	due := time.Duration(float64(s.pacedBytes) / float64(s.cfg.RateBytesPerSec) * float64(time.Second))
	ahead := due - time.Since(s.passStart)
	if ahead <= 0 {
		return nil
	}
	t := time.NewTimer(ahead)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// inventory rebuilds the pass-scoped map of chunk hash → logical size
// from all readable recipes. Chunks outside the map are unreferenced
// (orphans awaiting GC, or mid-ingest pull-cache fills) and are left
// to their owners.
func (s *Scrubber) inventory() error {
	keys, err := s.blobs.Keys()
	if err != nil {
		return err
	}
	sizes := map[string]int64{}
	for _, k := range keys {
		if _, ok := cas.LogicalKey(k); !ok {
			continue
		}
		raw, err := s.blobs.Get(k)
		if err != nil {
			continue // garbled or vanished recipes are reported when their key is scanned
		}
		r, err := cas.DecodeRecipe(raw)
		if err != nil {
			continue
		}
		for _, c := range r.Chunks {
			sizes[c.Hash] = c.Size
		}
	}
	s.chunkSizes = sizes
	return nil
}

// Step scans one batch of keys from the persisted cursor, quarantining
// and (with a fetcher) repairing what fails verification, then
// persists the new cursor. It returns the batch's report; Completed is
// set when the batch reached the end of the keyspace.
func (s *Scrubber) Step(ctx context.Context) (Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	cur := s.loadCursor()
	if cur.Key == "" || s.chunkSizes == nil {
		if err := s.inventory(); err != nil {
			return Report{}, err
		}
	}
	if cur.Key == "" {
		s.passStart = start
		s.pacedBytes = 0
	}
	keys, err := s.blobs.Keys()
	if err != nil {
		return Report{}, err
	}
	from := sort.SearchStrings(keys, cur.Key)
	for from < len(keys) && keys[from] <= cur.Key {
		from++
	}
	batch := keys[from:]
	if len(batch) > s.cfg.BatchKeys {
		batch = batch[:s.cfg.BatchKeys]
	}
	var rep Report
	for _, key := range batch {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		if err := s.scanKey(ctx, key, &rep); err != nil {
			return rep, err
		}
		cur.Key = key
		if rep.DetectLatency == 0 && len(rep.Findings) > 0 {
			rep.DetectLatency = time.Since(s.passStart)
		}
	}
	if from+len(batch) >= len(keys) {
		rep.Completed = true
		cur.Key = ""
		cur.Pass++
		s.chunkSizes = nil
	}
	s.saveCursor()
	rep.Cursor = cur.Key
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// RunPass steps until the current pass completes and returns the
// accumulated report. A cursor left mid-pass by an interrupted
// background scrub is finished, not restarted; use ResetCursor first
// to force a full sweep.
func (s *Scrubber) RunPass(ctx context.Context) (Report, error) {
	var total Report
	for {
		rep, err := s.Step(ctx)
		total.KeysScanned += rep.KeysScanned
		total.ChunksVerified += rep.ChunksVerified
		total.BytesVerified += rep.BytesVerified
		total.Findings = append(total.Findings, rep.Findings...)
		total.Quarantined += rep.Quarantined
		total.Repaired += rep.Repaired
		total.Elapsed += rep.Elapsed
		if total.DetectLatency == 0 {
			total.DetectLatency = rep.DetectLatency
		}
		if err != nil {
			return total, err
		}
		if rep.Completed {
			total.Completed = true
			return total, nil
		}
	}
}

// Run scrubs continuously until ctx is canceled: one pass, then an
// idle interval, then the next. mmserve starts it as a background
// goroutine.
func (s *Scrubber) Run(ctx context.Context) {
	t := time.NewTimer(0)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		rep, err := s.RunPass(ctx)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return
			}
		}
		if s.cfg.OnPass != nil {
			s.cfg.OnPass(rep)
		}
		t.Reset(s.cfg.Interval)
	}
}

// scanKey verifies one stored artifact and records what it finds.
func (s *Scrubber) scanKey(ctx context.Context, key string, rep *Report) error {
	rep.KeysScanned++
	switch {
	case isChunkKey(key):
		return s.scanChunk(ctx, key, rep)
	case isRecipeKey(key):
		return s.scanRecipe(ctx, key, rep)
	case cas.IsKey(key):
		return nil // no other CAS key is read (old stores' refcounts)
	case isIndexKey(key):
		return s.scanIndex(ctx, key, rep)
	default:
		return s.scanBlob(ctx, key, rep)
	}
}

func isChunkKey(key string) bool {
	_, ok := cas.ChunkHash(key)
	return ok
}

func isRecipeKey(key string) bool {
	_, ok := cas.LogicalKey(key)
	return ok
}

func isIndexKey(key string) bool { return strings.HasSuffix(key, "/params.idx") }

// corruptRead reports whether a read failure means the stored bytes
// are damaged (as opposed to missing or transiently unreadable).
func corruptRead(err error) bool {
	return errors.Is(err, cas.ErrCorrupt) || errors.Is(err, blobstore.ErrChecksumMismatch)
}

// scanChunk digest-verifies one chunk body against the logical size
// its referencing recipes promise. Unreferenced chunks are skipped:
// they are GC's to collect, and without a recipe there is no logical
// size to verify against.
func (s *Scrubber) scanChunk(ctx context.Context, key string, rep *Report) error {
	hash, _ := cas.ChunkHash(key)
	logical, referenced := s.chunkSizes[hash]
	if !referenced {
		return nil
	}
	stored, err := s.blobs.Size(key)
	if err != nil {
		return nil // vanished mid-scan (GC, prune): the store moved on
	}
	if err := s.pace(ctx, stored); err != nil {
		return err
	}
	verr := s.cas.VerifyChunk(hash, logical)
	if verr == nil {
		rep.ChunksVerified++
		rep.BytesVerified += stored
		s.reg.Counter(MetricChunksVerified).Inc()
		s.reg.Counter(MetricBytes).Add(stored)
		return nil
	}
	if backend.IsNotFound(verr) {
		return nil
	}
	if !corruptRead(verr) {
		s.record(rep, Finding{Key: key, Problem: verr.Error()})
		return nil
	}
	f := Finding{Key: key, Problem: verr.Error()}
	moved, qerr := s.cas.QuarantineChunk(hash)
	switch {
	case qerr != nil:
		f.RepairError = fmt.Sprintf("quarantine failed: %v", qerr)
	case moved:
		f.Quarantined = true
		rep.Quarantined++
		s.reg.Counter(MetricQuarantined).Inc()
	default:
		// An in-flight Put or pinned read is relying on the body; leave
		// it for the next pass rather than yank it mid-operation.
		f.RepairError = "skipped: chunk busy (in-flight put or pinned read)"
	}
	if moved {
		s.repairChunk(ctx, hash, logical, &f, rep)
	}
	s.record(rep, f)
	return nil
}

// repairChunk re-fetches a chunk from the peer and restores it.
func (s *Scrubber) repairChunk(ctx context.Context, hash string, logical int64, f *Finding, rep *Report) {
	if s.cfg.Fetcher == nil {
		return
	}
	data, err := s.cfg.Fetcher.FetchChunk(ctx, hash, logical)
	if err != nil {
		f.RepairError = fmt.Sprintf("fetch from peer failed: %v", err)
		return
	}
	if err := s.cas.RestoreChunk(hash, data); err != nil {
		f.RepairError = fmt.Sprintf("restore failed: %v", err)
		return
	}
	f.Repaired = true
	f.RepairError = ""
	rep.Repaired++
	s.reg.Counter(MetricRepairs).Inc()
}

// scanRecipe parses one recipe and checks each referenced chunk is
// present, healing missing or quarantined chunks from the peer.
func (s *Scrubber) scanRecipe(ctx context.Context, key string, rep *Report) error {
	raw, err := s.blobs.Get(key)
	if err != nil {
		if corruptRead(err) {
			s.record(rep, Finding{Key: key, Problem: err.Error()})
		}
		return nil
	}
	if err := s.pace(ctx, int64(len(raw))); err != nil {
		return err
	}
	rep.BytesVerified += int64(len(raw))
	s.reg.Counter(MetricBytes).Add(int64(len(raw)))
	r, err := cas.DecodeRecipe(raw)
	if err != nil {
		// A recipe is primary metadata: quarantining it would only turn
		// "unreadable" into "missing". Report and leave it in place.
		s.record(rep, Finding{Key: key, Problem: fmt.Sprintf("garbled recipe: %v", err)})
		return nil
	}
	seen := map[string]bool{}
	for _, c := range r.Chunks {
		if seen[c.Hash] {
			continue
		}
		seen[c.Hash] = true
		if s.cas.HasChunk(c.Hash) {
			continue
		}
		problem := "chunk " + c.Hash + " missing"
		if s.cas.ChunkQuarantined(c.Hash) {
			problem = "chunk " + c.Hash + " quarantined"
		}
		f := Finding{Key: key, Problem: problem}
		s.repairChunk(ctx, c.Hash, c.Size, &f, rep)
		if !f.Repaired && s.cfg.Fetcher == nil {
			f.RepairError = "no repair peer configured"
		}
		s.record(rep, f)
	}
	return nil
}

// scanIndex verifies a per-set chunk index both at the byte level
// (CRC manifest) and structurally (it must decode). A corrupt index is
// quarantined: readers fall back to ranged recipe reads when the index
// is missing, so removing a bad one restores service.
func (s *Scrubber) scanIndex(ctx context.Context, key string, rep *Report) error {
	data, err := s.blobs.Get(key)
	if err != nil {
		if corruptRead(err) {
			s.quarantineBlob(key, Finding{Key: key, Problem: err.Error()}, rep)
		}
		return nil
	}
	if err := s.pace(ctx, int64(len(data))); err != nil {
		return err
	}
	rep.BytesVerified += int64(len(data))
	s.reg.Counter(MetricBytes).Add(int64(len(data)))
	if _, derr := cas.DecodeIndex(data); derr != nil {
		s.quarantineBlob(key, Finding{Key: key, Problem: fmt.Sprintf("undecodable chunk index: %v", derr)}, rep)
	}
	return nil
}

// scanBlob verifies a raw (non-CAS) blob against its CRC manifest.
func (s *Scrubber) scanBlob(ctx context.Context, key string, rep *Report) error {
	sz, err := s.blobs.Size(key)
	if err != nil {
		return nil
	}
	if err := s.pace(ctx, sz); err != nil {
		return err
	}
	cerr := s.blobs.Check(key)
	switch {
	case cerr == nil:
		rep.BytesVerified += sz
		s.reg.Counter(MetricBytes).Add(sz)
	case errors.Is(cerr, blobstore.ErrNoChecksum):
		// Pre-checksum blob: nothing to verify against.
	case backend.IsNotFound(cerr):
	case errors.Is(cerr, blobstore.ErrChecksumMismatch):
		// Raw blobs are not content-addressed, so there is no peer
		// primitive to re-fetch them by; quarantine stops the rot from
		// being served and fsck reports the damaged set.
		s.quarantineBlob(key, Finding{Key: key, Problem: cerr.Error()}, rep)
	default:
		s.record(rep, Finding{Key: key, Problem: cerr.Error()})
	}
	return nil
}

// quarantineBlob moves a corrupt raw blob aside and records the
// finding.
func (s *Scrubber) quarantineBlob(key string, f Finding, rep *Report) {
	if err := s.cas.QuarantineBlob(key); err != nil {
		if !backend.IsNotFound(err) {
			f.RepairError = fmt.Sprintf("quarantine failed: %v", err)
		}
	} else {
		f.Quarantined = true
		rep.Quarantined++
		s.reg.Counter(MetricQuarantined).Inc()
	}
	s.record(rep, f)
}

// record appends a finding and bumps the error counter.
func (s *Scrubber) record(rep *Report, f Finding) {
	rep.Findings = append(rep.Findings, f)
	s.reg.Counter(MetricErrorsFound).Inc()
}

// String renders a one-line summary for CLI output.
func (r Report) String() string {
	return fmt.Sprintf("scanned %d keys (%d chunks, %d bytes verified): %d findings, %d quarantined, %d repaired",
		r.KeysScanned, r.ChunksVerified, r.BytesVerified, len(r.Findings), r.Quarantined, r.Repaired)
}
