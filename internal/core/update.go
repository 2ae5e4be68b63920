package core

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/mmm-go/mmm/internal/codec"
	"github.com/mmm-go/mmm/internal/core/pool"
	"github.com/mmm-go/mmm/internal/hashing"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/cas"
	"github.com/mmm-go/mmm/internal/tensor"
)

// Update is the paper's delta approach: the initial set is saved with
// Baseline's logic plus per-layer parameter hashes; every subsequent
// set saves (1) a reference to its base set, (2) fresh hashes for every
// model and layer, (3) the list of hash-detected changed layers, and
// (4) one binary blob concatenating only the changed parameters.
// Recovery is recursive: recover the base set, then apply the diffs.
//
// Two documented extensions from the paper's discussion are included:
//
//   - SnapshotInterval bounds the recursive recovery chain by saving a
//     full snapshot every k-th set ("recursively increasing recovery
//     times ... can be prevented by saving intermediate model
//     snapshots using the baseline approach", §2.2).
//   - WithCodec compresses the diff blob with a pluggable codec (the
//     compression future work of §4.5).
type Update struct {
	approachBase

	// SnapshotInterval k > 0 forces a full snapshot whenever the
	// recovery chain would otherwise grow to k. 0 disables snapshots
	// (the paper's evaluated configuration).
	SnapshotInterval int
	// ModelGranularity diffs at whole-model instead of per-layer
	// granularity: if any layer changed, all of the model's parameters
	// are saved. The paper's approach compares "related models on a
	// layer granularity"; this switch exists to ablate that choice
	// (partial updates lose their storage benefit under model
	// granularity).
	ModelGranularity bool
	// DeltaEncoding stores changed layers as XOR deltas against their
	// base values instead of raw floats — the ModelHub-style delta
	// encoding the paper points to as future work ("the storage
	// consumption can be reduced using delta encoding and other
	// compression techniques"). Retrained parameters usually move
	// little, so the XOR stream is mostly zero bytes in the exponent
	// and high-mantissa positions and compresses far better than raw
	// floats; combine with WithCodec to realize the saving. Saving pays
	// for it by reading the changed models' base values.
	DeltaEncoding bool
}

// NewUpdate returns an Update approach over the given stores.
func NewUpdate(stores Stores, opts ...Option) *Update {
	u := &Update{}
	u.setup(updateLayout, u, stores, opts)
	return u
}

// diffEntry identifies one changed layer: model index and parameter
// index into the architecture's ParamKeys.
type diffEntry struct {
	M int `json:"m"`
	P int `json:"p"`
}

// diffDoc lists a derived set's changes and how its blob is encoded.
type diffDoc struct {
	Entries []diffEntry `json:"entries"`
	// Compressed marks a zlib-encoded blob in documents written before
	// Codec existed. It is read, never written.
	Compressed bool `json:"compressed,omitempty"`
	// Delta marks the blob as XOR deltas against base values.
	Delta bool `json:"delta,omitempty"`
	// Codec is the ID of the codec the blob is encoded with; ""
	// means raw for pre-codec documents (unless Compressed is set).
	Codec string `json:"codec,omitempty"`
}

// diffCodecID resolves the codec a diff blob was stored with: the
// explicit codec ID when present, "zlib" for pre-codec compressed
// blobs, "" for raw bytes.
func diffCodecID(diff diffDoc) string {
	if diff.Codec != "" && diff.Codec != codec.NoneID {
		return diff.Codec
	}
	if diff.Codec == "" && diff.Compressed {
		return codec.ZlibID
	}
	return ""
}

// write implements approachImpl.
func (u *Update) write(ctx context.Context, op *saveOp, setID string, req SaveRequest) error {
	hashes, err := setHashes(ctx, req.Set, u.workers)
	if err != nil {
		return err
	}
	op.span.Phase("hash")

	var baseMeta setMeta
	full := req.Base == ""
	if !full {
		if baseMeta, err = u.checkBase(req); err != nil {
			return err
		}
		// Cut the recovery chain with a full snapshot.
		full = u.SnapshotInterval > 0 && baseMeta.Depth+1 >= u.SnapshotInterval
	}

	// The hash table is written for full and derived saves alike: it is
	// what lets the *next* save detect changes "without having to load
	// the full representation of the previous model". It must land
	// *before* the set's metadata document — the metadata doc is the
	// commit record, and a crash in between must never yield a visible
	// set whose hash info is missing.
	writeHashes := func(meta *setMeta) error {
		if _, err := op.put(u.layout.blobKey(setID, hashFile), hashes.raw, cas.Hints{}, op.dedup); err != nil {
			return fmt.Errorf("core: writing hash info: %w", err)
		}
		meta.HashTable = true
		return nil
	}
	if full {
		err = u.fullSave(ctx, op, setID, req, writeHashes)
	} else {
		err = u.saveDerived(ctx, op, setID, req, hashes, baseMeta, writeHashes)
	}
	if err != nil {
		return err
	}
	op.span.Phase("write")
	return nil
}

// saveDerived persists only the parameters whose hashes changed
// relative to the base set. preMeta runs just before the metadata
// document — the set's commit record — is written.
func (u *Update) saveDerived(ctx context.Context, op *saveOp, setID string, req SaveRequest, hashes hashTable, baseMeta setMeta, preMeta func(*setMeta) error) error {
	// checkBase pinned architecture and model count, so base hash info
	// of any other shape is corrupt, not "everything changed".
	baseHashes, err := u.loadHashes(baseMeta, hashes.p)
	if err != nil {
		return fmt.Errorf("core: base %q: %w", req.Base, err)
	}

	var entries []diffEntry
	changedPerModel := map[int][]int{}
	for m := range req.Set.Models {
		changed := hashing.DiffKeys(baseHashes.row(m), hashes.row(m))
		if u.ModelGranularity && len(changed) > 0 {
			// Any change saves the whole model (the ablated variant).
			changed = changed[:0]
			for p := 0; p < hashes.p; p++ {
				changed = append(changed, p)
			}
		}
		if len(changed) > 0 {
			changedPerModel[m] = changed
		}
		for _, p := range changed {
			entries = append(entries, diffEntry{M: m, P: p})
		}
	}

	// Delta encoding needs the changed models' base values to XOR
	// against; selective recovery fetches exactly those.
	var basePartial *PartialRecovery
	if u.DeltaEncoding && len(changedPerModel) > 0 {
		var changedModels []int
		for m := range changedPerModel {
			changedModels = append(changedModels, m)
		}
		var err error
		// The private entry point skips the partial-recovery metrics: this
		// read is part of the save, not a user-facing recovery.
		basePartial, err = u.recoverModels(ctx, req.Base, changedModels, map[string]bool{}, newRecoverSettings(nil))
		if err != nil {
			return fmt.Errorf("core: reading base values for delta encoding: %w", err)
		}
	}

	// Every entry's bytes land at a precomputed offset, so workers fill
	// disjoint regions of one blob and the layout matches the serial
	// entry-order concatenation exactly.
	offs := make([]int, len(entries)+1)
	for k, e := range entries {
		offs[k+1] = offs[k] + 4*req.Set.Models[e.M].Params()[e.P].Tensor.Len()
	}
	blob := make([]byte, offs[len(entries)])
	err = pool.Run(ctx, u.workers, len(entries), func(k int) error {
		e := entries[k]
		dst := blob[offs[k]:offs[k]:offs[k+1]]
		cur := req.Set.Models[e.M].Params()[e.P].Tensor
		if basePartial != nil {
			base := basePartial.Models[e.M].Params()[e.P].Tensor
			dst = tensor.AppendXORBytes(dst, cur, base)
		} else {
			dst = cur.AppendBytes(dst)
		}
		if len(dst) != offs[k+1]-offs[k] {
			return fmt.Errorf("core: diff entry (%d,%d) serialized to %d bytes, want %d",
				e.M, e.P, len(dst), offs[k+1]-offs[k])
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Encode the diff blob with the configured codec, keeping the
	// encoded form only when it actually shrinks. Under dedup the blob
	// deliberately stays raw at this level: the per-entry boundary
	// hints keep chunk-level deduplication effective, and the CAS layer
	// compresses each chunk body with the same codec on its own.
	encodedWith := ""
	if op.codec != nil && !op.dedup && len(blob) > 0 {
		start := time.Now()
		enc, err := op.codec.Encode(nil, blob)
		if err != nil {
			return fmt.Errorf("core: encoding diff blob: %w", err)
		}
		kept := len(blob)
		if len(enc) < len(blob) {
			blob = enc
			encodedWith = op.codec.ID()
			kept = len(enc)
		}
		codec.ObserveEncode(op.reg, op.codec.ID(), offs[len(entries)], kept, time.Since(start))
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	u.metrics.diffStats(len(entries), len(blob))
	// Chunk the diff blob at its per-entry offsets so a tensor diff
	// repeated across derived sets dedups cleanly. Encoded blobs lose
	// that alignment and chunk as one unit.
	var hints cas.Hints
	if encodedWith == "" {
		hints.Boundaries = offs
	}
	if _, err := op.put(u.layout.blobKey(setID, diffFile), blob, hints, op.dedup); err != nil {
		return fmt.Errorf("core: writing diff blob: %w", err)
	}
	doc := diffDoc{Entries: entries, Delta: basePartial != nil, Codec: encodedWith}
	if err := op.insertDoc(updateDiffCollection, setID, doc); err != nil {
		return fmt.Errorf("core: writing diff list: %w", err)
	}
	meta := op.newMeta(u.Name(), setID, req)
	meta.Kind, meta.Base, meta.Depth = "derived", req.Base, baseMeta.Depth+1
	if err := preMeta(&meta); err != nil {
		return err
	}
	if err := op.insertDoc(updateCollection, setID, meta); err != nil {
		return fmt.Errorf("core: writing metadata: %w", err)
	}
	return nil
}

// apply implements approachImpl: overwrite (or XOR) the changed layers
// of the recovered base with the set's diff blob, verifying every
// applied layer against the hashes the save recorded.
func (u *Update) apply(ctx context.Context, meta setMeta, set *ModelSet) error {
	setID := meta.SetID
	var diff diffDoc
	if err := u.stores.Docs.Get(updateDiffCollection, setID, &diff); err != nil {
		return fmt.Errorf("core: loading diff list: %w", err)
	}
	stored, err := u.loadHashes(meta, len(set.Arch.ParamKeys()))
	if err != nil {
		return err
	}

	// Validate the diff list and precompute every entry's blob offset
	// *before* touching the blob: the final offset is the exact
	// decompressed size a compressed blob must inflate to, which bounds
	// decompression below. Entries then apply independently (each
	// touches one tensor).
	offs := make([]int, len(diff.Entries)+1)
	seen := make(map[diffEntry]bool, len(diff.Entries))
	for k, e := range diff.Entries {
		if e.M < 0 || e.M >= len(set.Models) {
			return fmt.Errorf("core: diff references model %d outside set of %d", e.M, len(set.Models))
		}
		params := set.Models[e.M].Params()
		if e.P < 0 || e.P >= len(params) {
			return fmt.Errorf("core: diff references parameter %d of model %d", e.P, e.M)
		}
		if seen[e] {
			return fmt.Errorf("core: duplicate diff entry (%d,%d): %w", e.M, e.P, ErrCorruptBlob)
		}
		seen[e] = true
		offs[k+1] = offs[k] + 4*params[e.P].Tensor.Len()
	}
	want := offs[len(diff.Entries)]

	blob, err := u.getBlob(u.layout.blobKey(setID, diffFile))
	if err != nil {
		return fmt.Errorf("core: loading diff blob: %w", err)
	}
	if id := diffCodecID(diff); id != "" {
		if blob, err = decodeDiffBlob(u.metrics.reg, blob, want, id); err != nil {
			return err
		}
	}
	if len(blob) != want {
		return fmt.Errorf("core: diff blob has %d bytes, diff list implies %d: %w",
			len(blob), want, ErrCorruptBlob)
	}

	err = pool.Run(ctx, u.workers, len(diff.Entries), func(k int) error {
		e := diff.Entries[k]
		t := set.Models[e.M].Params()[e.P].Tensor
		segment := blob[offs[k]:offs[k+1]]
		var err error
		if diff.Delta {
			// The tensor currently holds the base value; XOR restores
			// the target value.
			_, err = t.XORFromBytes(segment)
		} else {
			_, err = t.SetFromBytes(segment)
		}
		if err != nil {
			return fmt.Errorf("core: applying diff for model %d param %d: %w", e.M, e.P, err)
		}
		// Integrity check: the applied layer must hash to what the save
		// recorded for this set (loadHashes made sure the table covers
		// every entry the diff list can validly name).
		if got := hashing.Tensor(t); !bytes.Equal(got[:], stored.at(e.M, e.P)) {
			return fmt.Errorf("core: model %d param %d hash mismatch after applying diff: %w", e.M, e.P, ErrCorruptBlob)
		}
		return nil
	})
	return err
}

// decodeDiffBlob decodes an encoded diff blob known to hold exactly
// want bytes. Every codec's Decode enforces the exact-size bound (the
// decompression-bomb guard), so any deviation — including an
// unregistered codec ID — is corruption.
func decodeDiffBlob(reg *obs.Registry, blob []byte, want int, id string) ([]byte, error) {
	c, err := codec.Lookup(id)
	if err != nil {
		return nil, fmt.Errorf("core: diff blob names codec %q this build does not know: %v: %w", id, err, ErrCorruptBlob)
	}
	start := time.Now()
	out, err := c.Decode(blob, want)
	if err != nil {
		return nil, fmt.Errorf("core: decoding diff blob (%s): %v: %w", id, err, ErrCorruptBlob)
	}
	codec.ObserveDecode(reg, id, time.Since(start))
	return out, nil
}

// ChainDepth returns how many derived sets must be recovered before
// setID (0 for full snapshots) — the quantity SnapshotInterval bounds.
func (u *Update) ChainDepth(setID string) (int, error) {
	meta, err := loadMeta(u.stores, u.layout, setID)
	return meta.Depth, err
}

// setHashes hashes every model's layers into the set's hash table.
// Hashing is the save path's compute-heavy step and parallelizes per
// model: workers fill disjoint rows.
func setHashes(ctx context.Context, set *ModelSet, workers int) (hashTable, error) {
	t := newHashTable(len(set.Models), len(set.Arch.ParamKeys()))
	err := pool.Run(ctx, workers, len(set.Models), func(i int) error {
		row := hashing.ModelList(set.Models[i])
		if len(row) != len(t.row(i)) {
			return fmt.Errorf("core: model %d has %d parameter tensors, its architecture names %d", i, len(row)/hashing.Size, t.p)
		}
		copy(t.row(i), row)
		return nil
	})
	if err != nil {
		return hashTable{}, err
	}
	return t, nil
}
