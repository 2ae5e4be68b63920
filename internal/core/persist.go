package core

import (
	"context"
	"encoding/json"
	"fmt"
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

// idAllocator hands out sequential set IDs per approach. Every
// allocation resumes above the largest sequence number among the IDs
// already stored — not their count, which shrinks when sets are
// pruned — so a reopened store is never handed the ID of a live set:
// any stored ID equal to the candidate would have parsed to the
// candidate's number and pushed the counter past it. The counter only
// moves forward, which keeps concurrent saves that listed the same
// existing IDs apart.
type idAllocator struct {
	mu     sync.Mutex
	prefix string
	next   int
}

func (a *idAllocator) allocate(existing []string) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.next < 1 {
		a.next = 1
	}
	prefix := a.prefix + "-"
	for _, id := range existing {
		if seq, ok := strings.CutPrefix(id, prefix); ok {
			if n, err := strconv.Atoi(seq); err == nil && n >= a.next {
				a.next = n + 1
			}
		}
	}
	id := fmt.Sprintf("%s%06d", prefix, a.next)
	a.next++
	return id
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

// chooseSetID resolves the ID one save will commit under: the request's
// explicit ID when given (rejecting IDs already present — sets are
// immutable, and replication reads "present" as "complete"), or the
// next sequential ID otherwise. existing is the approach collection's
// current document ID list.
func chooseSetID(req SaveRequest, ids *idAllocator, existing []string) (string, error) {
	if req.SetID == "" {
		return ids.allocate(existing), nil
	}
	for _, have := range existing {
		if have == req.SetID {
			return "", fmt.Errorf("core: explicit-ID save of %q: %w", req.SetID, ErrSetExists)
		}
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
	dedup   bool        // route blob writes through the CAS layer
	codec   codec.Codec // per-chunk/diff compression; nil stores raw
	codecID string      // configured codec ID as persisted in metadata
	workers int         // encode fan-out under dedup
	reg     *obs.Registry
	span    *obs.Span // the save's trace span, for phase marks
	mu      sync.Mutex
	bytes   int64
	ops     int64
	blobs   []savedBlob // written blobs, in write order
	docs    [][2]string // written (collection, id) pairs, in write order
}

// savedBlob records one written blob and how it was written, so
// rollback can undo it the matching way (raw delete vs. CAS release).
type savedBlob struct {
	key   string
	dedup bool
}

// putBlob writes a blob and records its cost.
func (op *saveOp) putBlob(key string, data []byte) error {
	return op.putBlobHinted(key, data, cas.Hints{})
}

// putBlobHinted is putBlob with chunk-boundary hints for the CAS
// layer. Under dedup the recorded cost is the write's *physical*
// footprint — newly stored chunk bytes plus the recipe — so
// SaveResult.BytesWritten reflects what the store actually grew by;
// refcount updates are bookkeeping and not counted as write ops.
func (op *saveOp) putBlobHinted(key string, data []byte, hints cas.Hints) error {
	if !op.dedup {
		return op.putPlain(key, data)
	}
	res, err := cas.For(op.st.Blobs).PutEncoded(key, data, 0, hints,
		cas.Encoding{Codec: op.codec, Workers: op.workers}, op.reg)
	if err != nil {
		return err
	}
	op.wrote(res.PhysicalBytes, res.WriteOps, savedBlob{key: key, dedup: true})
	return nil
}

// putBlobRaw writes a blob directly to the blob store even under
// dedup. Tiny derived artifacts (the per-set chunk index) are not
// worth chunking — and must stay raw so reading them never recurses
// through the CAS layer they describe. Any cached parse of a previous
// blob under the key is invalidated.
func (op *saveOp) putBlobRaw(key string, data []byte) error {
	if err := op.putPlain(key, data); err != nil {
		return err
	}
	cas.For(op.st.Blobs).InvalidateRaw(key)
	return nil
}

// putPlain writes one raw blob and records its cost.
func (op *saveOp) putPlain(key string, data []byte) error {
	if err := op.st.Blobs.Put(key, data); err != nil {
		return err
	}
	op.wrote(int64(len(data)), 1, savedBlob{key: key})
	return nil
}

// wrote records one blob write's cost and its rollback entry.
func (op *saveOp) wrote(bytes, ops int64, blob savedBlob) {
	op.mu.Lock()
	op.bytes += bytes
	op.ops += ops
	op.blobs = append(op.blobs, blob)
	op.mu.Unlock()
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
	for i := len(op.blobs) - 1; i >= 0; i-- {
		if op.blobs[i].dedup {
			// Releasing drops exactly the references this save took; a
			// failed cas.Put has already undone its own partial work.
			_, _ = cas.For(op.st.Blobs).Release(op.blobs[i].key, op.reg)
		} else {
			_ = op.st.Blobs.Delete(op.blobs[i].key)
			cas.For(op.st.Blobs).InvalidateRaw(op.blobs[i].key)
		}
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
	if err := op.putBlob(key, blob); err != nil {
		return fmt.Errorf("core: writing architecture: %w", err)
	}
	return nil
}

// loadArchBlob reads an architecture definition back.
func loadArchBlob(st Stores, key string) (*nn.Architecture, error) {
	blob, err := getBlob(st, key)
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
// auxiliary documents inside the same commit boundary (a crash after
// the metadata write must never leave them missing).
func (b *approachBase) fullSave(ctx context.Context, op *saveOp, setID string, req SaveRequest, preMeta func() error) error {
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
	if err := op.putBlobHinted(l.blobKey(setID, paramsFile), params,
		cas.Hints{Stride: req.Set.Arch.ParamBytes()}); err != nil {
		return fmt.Errorf("core: writing parameters: %w", err)
	}
	// Dedup saves also persist the params blob's chunk index, inside
	// the commit boundary: selective recovery resolves chunks from it
	// without walking the recipe.
	if err := writeChunkIndex(op, l, setID, int64(req.Set.Arch.ParamBytes())); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if preMeta != nil {
		if err := preMeta(); err != nil {
			return err
		}
	}
	if err := op.insertDoc(l.collection, setID, op.newMeta(l.label, setID, req)); err != nil {
		return fmt.Errorf("core: writing metadata: %w", err)
	}
	return nil
}

// readFull is approachImpl's full-snapshot default: reverse fullSave.
func (b *approachBase) readFull(ctx context.Context, meta setMeta) (*ModelSet, error) {
	arch, err := loadArchBlob(b.stores, b.layout.blobKey(meta.SetID, archFile))
	if err != nil {
		return nil, err
	}
	data, err := getBlob(b.stores, b.layout.blobKey(meta.SetID, paramsFile))
	if err != nil {
		return nil, fmt.Errorf("core: reading parameters: %w", err)
	}
	return buildSetFromParams(ctx, arch, meta.NumModels, data, b.workers)
}
