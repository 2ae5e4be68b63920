package core

import (
	"context"
	"fmt"

	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// approachBase is what the four approaches share: the construction
// settings, the set-ID allocator, and every operation that follows
// from the approach's layout alone. The embedding approach supplies
// the parts that interpret artifacts through approachImpl.
type approachBase struct {
	layout  *layout
	impl    approachImpl
	stores  Stores
	blobs   *cas.Store // stores.Blobs' logical-blob store: raw or chunked, decided there
	ids     idAllocator
	workers int
	metrics *approachObs
	dedup   bool
	codec   string
}

// Everything the layout alone determines is implemented once, here and
// in the files of the respective interfaces.
var _ interface {
	Approach
	PartialRecoverer
	Lineager
	Pruner
	Exporter
	PullSourcer
	Verifier
} = (*Baseline)(nil)

// approachImpl is the approach-specific half of save, recovery and
// verification. approachBase provides the full-snapshot defaults
// (readFull next to fullSave, readFullModels in partial.go, verifySet
// in verify.go); approaches shadow the methods their layout changes.
type approachImpl interface {
	// write persists req under setID through op, metadata document
	// last. The caller rolls op back on error.
	write(ctx context.Context, op *saveOp, setID string, req SaveRequest) error
	// readFull materializes a full-snapshot set; readFullModels the
	// models at the validated indices idx of one.
	readFull(ctx context.Context, meta setMeta) (*ModelSet, error)
	readFullModels(ctx context.Context, meta setMeta, idx []int, rs *recoverSettings) (*PartialRecovery, error)
	// apply turns set, the recovered base of the derived set meta,
	// into that set in place; applyModels does so for the models idx.
	apply(ctx context.Context, meta setMeta, set *ModelSet) error
	applyModels(ctx context.Context, meta setMeta, base *PartialRecovery, idx []int, rs *recoverSettings) error
	// verifySet checks the consistency of a committed set's artifacts
	// beyond their existence; artifacts reported missing are skipped.
	verifySet(meta setMeta) []Issue
}

// setup wires the base to its layout, stores and embedding approach.
func (b *approachBase) setup(l *layout, impl approachImpl, stores Stores, opts []Option) {
	s := newSettings(opts)
	b.layout, b.impl, b.stores = l, impl, stores
	b.blobs = cas.For(stores.Blobs)
	b.blobs.EnableCache(s.cacheBytes, s.metrics)
	b.ids.prefix = l.idPrefix
	b.workers, b.dedup, b.codec = s.workers, s.dedup, s.codec
	b.metrics = newApproachObs(s.metrics, l.label)
}

// Name implements Approach.
func (b *approachBase) Name() string { return b.layout.label }

// SetIDs lists all sets saved by this approach, in save order.
func (b *approachBase) SetIDs() ([]string, error) {
	return b.stores.Docs.IDs(b.layout.collection)
}

// loadMeta fetches a set's metadata document. A missing document means
// the set was never saved (in this approach's namespace): callers get
// an error wrapping ErrSetNotFound.
func loadMeta(st Stores, l *layout, setID string) (setMeta, error) {
	var meta setMeta
	if err := st.Docs.Get(l.collection, setID, &meta); err != nil {
		if backend.IsNotFound(err) {
			return setMeta{}, fmt.Errorf("core: loading metadata of %q: %w", setID, ErrSetNotFound)
		}
		return setMeta{}, fmt.Errorf("core: loading metadata of %q: %w", setID, err)
	}
	return meta, nil
}

// ownMeta is loadMeta plus the check that the set was saved by this
// approach.
func (b *approachBase) ownMeta(setID string) (setMeta, error) {
	meta, err := loadMeta(b.stores, b.layout, setID)
	if err != nil {
		return setMeta{}, err
	}
	if meta.Approach != b.layout.label {
		return setMeta{}, fmt.Errorf("core: set %q was saved by %s, not %s", setID, meta.Approach, b.layout.label)
	}
	return meta, nil
}

// SaveContext implements Approach: claim the set ID, hand the
// approach a saveOp to write through, and roll back on failure.
func (b *approachBase) SaveContext(ctx context.Context, req SaveRequest) (SaveResult, error) {
	sp := b.metrics.begin("save", "")
	res, err := b.save(ctx, req, sp)
	sp.SetID = res.SetID
	b.metrics.endSave(sp, res, err)
	return res, err
}

func (b *approachBase) save(ctx context.Context, req SaveRequest, sp *obs.Span) (SaveResult, error) {
	if err := validateSave(req); err != nil {
		return SaveResult{}, err
	}
	if err := ctx.Err(); err != nil {
		return SaveResult{}, err
	}
	setID, err := chooseSetID(req, &b.ids, b.SetIDs)
	if err != nil {
		return SaveResult{}, err
	}
	defer b.ids.release(setID)
	cdc, err := resolveCodec(b.codec)
	if err != nil {
		return SaveResult{}, err
	}
	op := &saveOp{st: b.stores, blobs: b.blobs, dedup: b.dedup, codec: cdc, codecID: b.codec,
		workers: b.workers, reg: b.metrics.reg, span: sp}
	if err := b.impl.write(ctx, op, setID, req); err != nil {
		op.rollback()
		return SaveResult{}, err
	}
	return op.result(setID), nil
}

// Save implements Approach.
//
// Deprecated: use SaveContext.
func (b *approachBase) Save(req SaveRequest) (SaveResult, error) {
	return b.SaveContext(context.Background(), req)
}

// RecoverContext implements Approach. Derived sets recover
// recursively: "to recover a given model set saved in iteration i of
// U3, we have to recover the model saved in the previous iteration" —
// and then apply what the derived set stored on top.
func (b *approachBase) RecoverContext(ctx context.Context, setID string) (*ModelSet, error) {
	sp := b.metrics.begin("recover", setID)
	visited := map[string]bool{}
	set, err := b.recoverSet(ctx, setID, visited)
	b.metrics.endRecover(sp, len(visited)-1, err)
	return set, err
}

// checkChain guards the recursive recovery walk: every visited set ID
// is recorded, and a revisit fails instead of recursing forever. A
// revisit also subsumes any depth bound — set IDs are unique, so a
// chain longer than the number of sets must repeat one. Corrupt
// metadata is the only way to produce a cycle, hence ErrCorruptBlob.
func checkChain(visited map[string]bool, setID string) error {
	if visited[setID] {
		return fmt.Errorf("core: base chain revisits set %q — metadata cycle: %w", setID, ErrCorruptBlob)
	}
	visited[setID] = true
	return nil
}

func (b *approachBase) recoverSet(ctx context.Context, setID string, visited map[string]bool) (*ModelSet, error) {
	if err := checkChain(visited, setID); err != nil {
		return nil, err
	}
	meta, err := b.ownMeta(setID)
	if err != nil {
		return nil, err
	}
	if !b.layout.derived(meta) {
		return b.impl.readFull(ctx, meta)
	}
	set, err := b.recoverSet(ctx, meta.Base, visited)
	if err != nil {
		return nil, fmt.Errorf("core: recovering base of %q: %w", setID, err)
	}
	if err := b.impl.apply(ctx, meta, set); err != nil {
		return nil, err
	}
	return set, nil
}

// Recover implements Approach.
//
// Deprecated: use RecoverContext.
func (b *approachBase) Recover(setID string) (*ModelSet, error) {
	return b.RecoverContext(context.Background(), setID)
}

// RecoverModelsContext implements PartialRecoverer.
func (b *approachBase) RecoverModelsContext(ctx context.Context, setID string, indices []int, opts ...RecoverOption) (*PartialRecovery, error) {
	rs := newRecoverSettings(opts)
	sp := b.metrics.begin("partial_recover", setID)
	visited := map[string]bool{}
	rec, err := b.recoverModels(ctx, setID, indices, visited, rs)
	rec, err = rs.finish(setID, rec, err)
	b.metrics.endRecover(sp, len(visited)-1, err)
	b.metrics.degradedSkips(rs.skipCount())
	return rec, err
}

// recoverModels is the selective twin of recoverSet: the selected
// models' base state recovers recursively, then only their share of
// the derived set is applied.
func (b *approachBase) recoverModels(ctx context.Context, setID string, indices []int, visited map[string]bool, rs *recoverSettings) (*PartialRecovery, error) {
	if err := checkChain(visited, setID); err != nil {
		return nil, err
	}
	meta, err := b.ownMeta(setID)
	if err != nil {
		return nil, err
	}
	idx, err := validateIndices(indices, meta.NumModels)
	if err != nil {
		return nil, err
	}
	if !b.layout.derived(meta) {
		return b.impl.readFullModels(ctx, meta, idx, rs)
	}
	base, err := b.recoverModels(ctx, meta.Base, idx, visited, rs)
	if err != nil {
		return nil, fmt.Errorf("core: recovering base of %q: %w", setID, err)
	}
	if err := b.impl.applyModels(ctx, meta, base, idx, rs); err != nil {
		return nil, err
	}
	return base, nil
}

// RecoverModels implements PartialRecoverer.
//
// Deprecated: use RecoverModelsContext.
func (b *approachBase) RecoverModels(setID string, indices []int) (*PartialRecovery, error) {
	return b.RecoverModelsContext(context.Background(), setID, indices)
}

// apply and applyModels are never reached for approaches that save
// only full snapshots (their layouts are not chained).
func (b *approachBase) apply(context.Context, setMeta, *ModelSet) error {
	return fmt.Errorf("core: %s has no derived sets", b.layout.label)
}

func (b *approachBase) applyModels(context.Context, setMeta, *PartialRecovery, []int, *recoverSettings) error {
	return fmt.Errorf("core: %s has no derived sets", b.layout.label)
}

// checkBase loads the metadata of req.Base and rejects a set that is
// structurally incompatible with it: derived artifacts are positional
// (model index, parameter index) and replay on top of the base's
// models, so a different architecture or model count would persist a
// set that recovers corrupt or not at all.
func (b *approachBase) checkBase(req SaveRequest) (setMeta, error) {
	baseMeta, err := loadMeta(b.stores, b.layout, req.Base)
	if err != nil {
		return setMeta{}, fmt.Errorf("core: %s save: %w", b.layout.name, err)
	}
	if baseMeta.ArchName != req.Set.Arch.Name || baseMeta.ParamCount != req.Set.Arch.ParamCount() {
		return setMeta{}, fmt.Errorf("core: %s save: base %q is %q with %d params, set is %q with %d params: %w",
			b.layout.name, req.Base, baseMeta.ArchName, baseMeta.ParamCount,
			req.Set.Arch.Name, req.Set.Arch.ParamCount(), ErrBaseMismatch)
	}
	if baseMeta.NumModels != len(req.Set.Models) {
		return setMeta{}, fmt.Errorf("core: %s save: base has %d models, set has %d: %w",
			b.layout.name, baseMeta.NumModels, len(req.Set.Models), ErrBaseMismatch)
	}
	return baseMeta, nil
}
