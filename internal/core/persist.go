package core

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"github.com/mmm-go/mmm/internal/codec"
	"github.com/mmm-go/mmm/internal/core/pool"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// setMeta is the per-set metadata document shared by all approaches —
// the same document SetInfo exposes. For the full-snapshot approaches
// this is the *only* metadata saved for the whole set — the core of
// optimization O1.
type setMeta = SetInfo

// idAllocator hands out sequential set IDs per approach and holds the
// ID of every save in flight claimed until that save commits or rolls
// back. Every allocation resumes above the largest sequence number
// among the IDs already stored — not their count, which shrinks when
// sets are pruned — so a reopened store is never handed the ID of a
// live set: any stored ID equal to the candidate would have parsed to
// the candidate's number and pushed the counter past it. The counter
// only moves forward, which keeps concurrent saves that listed the
// same existing IDs apart; claimed explicit IDs push it too.
type idAllocator struct {
	mu      sync.Mutex
	prefix  string
	next    int
	claimed map[string]bool
}

// observe moves the counter past every sequential ID among ids.
// Callers hold a.mu.
func (a *idAllocator) observe(ids ...string) {
	if a.next < 1 {
		a.next = 1
	}
	prefix := a.prefix + "-"
	for _, id := range ids {
		if seq, ok := strings.CutPrefix(id, prefix); ok {
			if n, err := strconv.Atoi(seq); err == nil && n >= a.next {
				a.next = n + 1
			}
		}
	}
}

// allocate claims and returns the next sequential ID. No save holds
// it: every claim moved the counter past its own ID.
func (a *idAllocator) allocate(existing []string) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.observe(existing...)
	id := fmt.Sprintf("%s-%06d", a.prefix, a.next)
	a.claimLocked(id)
	return id
}

// claim claims id for one save, reporting false if another save in
// flight holds it.
func (a *idAllocator) claim(id string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.claimLocked(id)
}

// claimLocked is claim for callers holding a.mu. A claimed sequential
// ID moves the counter past it.
func (a *idAllocator) claimLocked(id string) bool {
	if a.claimed[id] {
		return false
	}
	if a.claimed == nil {
		a.claimed = map[string]bool{}
	}
	a.claimed[id] = true
	a.observe(id)
	return true
}

// release drops the claim on id once its save committed or rolled back.
func (a *idAllocator) release(id string) {
	a.mu.Lock()
	delete(a.claimed, id)
	a.mu.Unlock()
}

// ValidateSetID checks that an explicit set ID is usable as a blob and
// document key: set IDs become path segments in the dir backend, so
// anything that could traverse or collide with reserved names is
// rejected before a byte is written.
func ValidateSetID(id string) error {
	if id == "" || len(id) > 120 {
		return fmt.Errorf("core: set ID must be 1-120 bytes, got %d", len(id))
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
			if i == 0 {
				return fmt.Errorf("core: set ID %q must start with a letter or digit", id)
			}
		default:
			return fmt.Errorf("core: set ID %q contains illegal byte %q", id, c)
		}
	}
	return nil
}

// chooseSetID resolves and claims the ID one save will commit under:
// the request's explicit ID when given, or the next sequential ID
// otherwise. An explicit ID that is stored, or claimed by a save still
// in flight, fails with ErrSetExists — sets are immutable, and
// replication reads "present" as "complete". list reads the approach
// collection's document IDs. The caller releases the returned ID once
// the save has committed or rolled back.
func chooseSetID(req SaveRequest, ids *idAllocator, list func() ([]string, error)) (string, error) {
	if req.SetID == "" {
		existing, err := list()
		if err != nil {
			return "", err
		}
		return ids.allocate(existing), nil
	}
	if !ids.claim(req.SetID) {
		return "", fmt.Errorf("core: explicit-ID save of %q: claimed by a save in flight: %w", req.SetID, ErrSetExists)
	}
	// Listed only after claiming: a save that committed this ID kept its
	// claim until its metadata was visible, so the claim or the listing
	// sees it.
	existing, err := list()
	if err == nil && slices.Contains(existing, req.SetID) {
		err = fmt.Errorf("core: explicit-ID save of %q: %w", req.SetID, ErrSetExists)
	}
	if err != nil {
		ids.release(req.SetID)
		return "", err
	}
	return req.SetID, nil
}

// saveOp tracks every write one save operation issues so that (1) the
// SaveResult reports exactly this save's bytes and write ops — global
// store counters misattribute costs when saves run concurrently — and
// (2) a failed or cancelled save can roll its artifacts back, leaving
// no orphaned blobs or documents behind.
type saveOp struct {
	st      Stores
	blobs   *cas.Store  // st.Blobs' logical-blob store
	dedup   bool        // the approach saves with WithDedup
	codec   codec.Codec // per-chunk/diff compression; nil stores raw
	codecID string      // configured codec ID as persisted in metadata
	workers int         // encode fan-out under dedup
	reg     *obs.Registry
	span    *obs.Span // the save's trace span, for phase marks
	mu      sync.Mutex
	bytes   int64
	ops     int64
	keys    []string    // written blobs, in write order
	docs    [][2]string // written (collection, id) pairs, in write order
}

// put writes one logical blob and records its cost and its rollback
// entry: chunked through the CAS layer — with chunk-boundary hints —
// or as one raw blob. Approaches pass op.dedup; the per-set chunk
// index is always raw. The recorded cost of a chunked write is its
// *physical* footprint — newly stored chunk bytes plus the recipe — so
// SaveResult.BytesWritten reflects what the store actually grew by.
func (op *saveOp) put(key string, data []byte, hints cas.Hints, chunked bool) (cas.PutResult, error) {
	var res cas.PutResult
	var err error
	if chunked {
		res, err = op.blobs.PutEncoded(key, data, 0, hints,
			cas.Encoding{Codec: op.codec, Workers: op.workers}, op.reg)
	} else {
		res, err = op.blobs.PutRaw(key, data)
	}
	if err != nil {
		return res, err
	}
	op.mu.Lock()
	op.bytes += res.PhysicalBytes
	op.ops += res.WriteOps
	op.keys = append(op.keys, key)
	op.mu.Unlock()
	return res, nil
}

// insertDoc writes a document and records its cost (the encoded JSON
// length, matching the document store's own accounting).
func (op *saveOp) insertDoc(collection, id string, doc any) error {
	n, err := op.st.Docs.InsertSized(collection, id, doc)
	if err != nil {
		return err
	}
	op.mu.Lock()
	op.bytes += n
	op.ops++
	op.docs = append(op.docs, [2]string{collection, id})
	op.mu.Unlock()
	return nil
}

// rollback deletes everything the save wrote, newest first, so an
// aborted save leaves the store exactly as it found it. Deletion
// errors are ignored: rollback runs on an already-failing path and
// must not mask the original error.
func (op *saveOp) rollback() {
	op.mu.Lock()
	defer op.mu.Unlock()
	for i := len(op.docs) - 1; i >= 0; i-- {
		_ = op.st.Docs.Delete(op.docs[i][0], op.docs[i][1])
	}
	for i := len(op.keys) - 1; i >= 0; i-- {
		// Deleting a chunked blob drops exactly the references this save
		// took; a failed cas.Put has already undone its own partial work.
		_, _ = op.blobs.Delete(op.keys[i])
	}
}

// result reports what this save wrote.
func (op *saveOp) result(setID string) SaveResult {
	op.mu.Lock()
	defer op.mu.Unlock()
	return SaveResult{SetID: setID, BytesWritten: op.bytes, WriteOps: op.ops}
}

// concatParams serializes all models' parameters back to back — one
// binary artifact for the whole set. This is Baseline's central move:
// "we iterate over all models, concatenate the floating-point numbers
// representing the parameters, and save them to one binary file".
// Every model's bytes land at a precomputed offset, so workers fill
// disjoint regions and the result is byte-identical at any concurrency.
func concatParams(ctx context.Context, set *ModelSet, workers int) ([]byte, error) {
	perModel := set.Arch.ParamBytes()
	buf := make([]byte, perModel*len(set.Models))
	err := pool.Run(ctx, workers, len(set.Models), func(i int) error {
		dst := buf[i*perModel : i*perModel : (i+1)*perModel]
		out := set.Models[i].AppendParamBytes(dst)
		if len(out) != perModel {
			return fmt.Errorf("core: model %d serialized to %d bytes, want %d", i, len(out), perModel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// buildSetFromParams reconstructs n models of arch by reading their
// parameters from one concatenated binary buffer: "we read the
// parameters sequentially from the parameter file to fully recover all
// models". Model offsets are a pure function of the architecture, so
// workers decode disjoint segments into disjoint slots.
func buildSetFromParams(ctx context.Context, arch *nn.Architecture, n int, data []byte, workers int) (*ModelSet, error) {
	perModel := arch.ParamBytes()
	if len(data) != perModel*n {
		return nil, fmt.Errorf("core: parameter blob has %d bytes, want %d (%d models × %d): %w",
			len(data), perModel*n, n, perModel, ErrCorruptBlob)
	}
	set := &ModelSet{Arch: arch, Models: make([]*nn.Model, n)}
	err := pool.Run(ctx, workers, n, func(i int) error {
		m, err := nn.NewModelUninitialized(arch)
		if err != nil {
			return err
		}
		if _, err := m.SetParamBytes(data[i*perModel : (i+1)*perModel]); err != nil {
			return fmt.Errorf("core: recovering model %d: %w", i, err)
		}
		set.Models[i] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return set, nil
}

// saveArchBlob persists the (single, shared) architecture definition.
func saveArchBlob(op *saveOp, key string, arch *nn.Architecture) error {
	blob, err := json.Marshal(arch)
	if err != nil {
		return fmt.Errorf("core: marshaling architecture: %w", err)
	}
	if _, err := op.put(key, blob, cas.Hints{}, op.dedup); err != nil {
		return fmt.Errorf("core: writing architecture: %w", err)
	}
	return nil
}

// loadArchBlob reads an architecture definition back.
func (b *approachBase) loadArchBlob(key string) (*nn.Architecture, error) {
	blob, err := b.getBlob(key)
	if err != nil {
		return nil, fmt.Errorf("core: reading architecture: %w", err)
	}
	var arch nn.Architecture
	if err := json.Unmarshal(blob, &arch); err != nil {
		return nil, fmt.Errorf("core: parsing architecture: %w", err)
	}
	if err := arch.Validate(); err != nil {
		return nil, fmt.Errorf("core: stored architecture invalid: %w", err)
	}
	return &arch, nil
}

// newMeta is the metadata document of a full save of req under setID;
// derived saves adjust kind, base and depth.
func (op *saveOp) newMeta(label, setID string, req SaveRequest) setMeta {
	return setMeta{
		SetID: setID, Approach: label, Kind: "full",
		ArchName: req.Set.Arch.Name, NumModels: len(req.Set.Models),
		ParamCount: req.Set.Arch.ParamCount(), Codec: op.codecID,
	}
}

// fullSave implements "Baseline's logic": one metadata document, one
// architecture blob, one concatenated parameter blob. Update and
// Provenance reuse it for their initial sets. The metadata document is
// written last: a set only becomes visible once its artifacts are
// complete. preMeta, when non-nil, runs after the blobs but before the
// metadata document — the hook for approaches that must persist
// auxiliary artifacts inside the same commit boundary (a crash after
// the metadata write must never leave them missing) and record them in
// the metadata.
func (b *approachBase) fullSave(ctx context.Context, op *saveOp, setID string, req SaveRequest, preMeta func(*setMeta) error) error {
	l := b.layout
	if err := saveArchBlob(op, l.blobKey(setID, archFile), req.Set.Arch); err != nil {
		return err
	}
	params, err := concatParams(ctx, req.Set, b.workers)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Chunking at model-size stride keeps every unchanged model's
	// chunks byte-identical across saves — the layout-stability the
	// dedup layer's write-skipping depends on.
	res, err := op.put(l.blobKey(setID, paramsFile), params,
		cas.Hints{Stride: req.Set.Arch.ParamBytes()}, op.dedup)
	if err != nil {
		return fmt.Errorf("core: writing parameters: %w", err)
	}
	// Dedup saves also persist the params blob's chunk index, built
	// from the recipe just written, inside the commit boundary — after
	// the params blob, before the metadata document: selective recovery
	// resolves chunks from it without walking the recipe. It stays a raw
	// blob so that reading it never goes through the chunks it
	// describes. Plain saves have no recipe to index.
	if op.dedup {
		ix := cas.BuildIndex(int64(req.Set.Arch.ParamBytes()), res.Recipe)
		if _, err := op.put(l.blobKey(setID, chunkIndexFile), ix.Encode(), cas.Hints{}, false); err != nil {
			return fmt.Errorf("core: writing chunk index: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	meta := op.newMeta(l.label, setID, req)
	if preMeta != nil {
		if err := preMeta(&meta); err != nil {
			return err
		}
	}
	if err := op.insertDoc(l.collection, setID, meta); err != nil {
		return fmt.Errorf("core: writing metadata: %w", err)
	}
	return nil
}

// readFull is approachImpl's full-snapshot default: reverse fullSave.
func (b *approachBase) readFull(ctx context.Context, meta setMeta) (*ModelSet, error) {
	arch, err := b.loadArchBlob(b.layout.blobKey(meta.SetID, archFile))
	if err != nil {
		return nil, err
	}
	data, err := b.getBlob(b.layout.blobKey(meta.SetID, paramsFile))
	if err != nil {
		return nil, fmt.Errorf("core: reading parameters: %w", err)
	}
	return buildSetFromParams(ctx, arch, meta.NumModels, data, b.workers)
}
