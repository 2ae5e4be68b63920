package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"github.com/mmm-go/mmm/internal/core/pool"
	"github.com/mmm-go/mmm/internal/env"
	"github.com/mmm-go/mmm/internal/hashing"
	"github.com/mmm-go/mmm/internal/nn"
)

// Selective recovery implements the paper's motivating access pattern:
// "We save every model ever generated for analytical and archival
// purposes but only recover a selected number of models, for example,
// after an accident." Recovering a handful of cell models out of a
// 5000-model set should not require materializing the whole set; each
// approach supports it with its own strategy:
//
//   - Baseline reads only the selected models' byte ranges out of the
//     concatenated parameter blob (the file layout makes offsets a pure
//     function of the architecture).
//   - MMlibBase loads exactly the selected models' documents and blobs
//     (the per-model layout's one genuine advantage).
//   - Update recovers the selected models' base state recursively and
//     applies only their diff segments, located by computed offsets.
//   - Provenance recovers the selected models' base state recursively
//     and re-executes only their trainings.

// PartialRecovery is the result of recovering selected models: the
// shared architecture plus the recovered models keyed by their index
// in the original set.
type PartialRecovery struct {
	Arch   *nn.Architecture
	Models map[int]*nn.Model
}

// PartialRecoverer is implemented by approaches that can recover a
// subset of a saved set. All four approaches implement it.
type PartialRecoverer interface {
	// RecoverModelsContext recovers the models at the given indices of
	// the set saved under setID, honoring ctx cancellation. Options
	// configure the call; see WithPartialResults for degraded recovery.
	RecoverModelsContext(ctx context.Context, setID string, indices []int, opts ...RecoverOption) (*PartialRecovery, error)
	// RecoverModels recovers the models at the given indices of the set
	// saved under setID.
	//
	// Deprecated: use RecoverModelsContext. RecoverModels is
	// RecoverModelsContext with context.Background().
	RecoverModels(setID string, indices []int) (*PartialRecovery, error)
}

// validateIndices checks the requested indices against the set size and
// returns them deduplicated and sorted.
func validateIndices(indices []int, numModels int) ([]int, error) {
	if len(indices) == 0 {
		return nil, fmt.Errorf("core: no model indices requested")
	}
	seen := make(map[int]bool, len(indices))
	out := make([]int, 0, len(indices))
	for _, i := range indices {
		if i < 0 || i >= numModels {
			return nil, fmt.Errorf("core: model index %d outside set of %d", i, numModels)
		}
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out, nil
}

// readFullModels is approachImpl's full-snapshot default: it reads the
// selected models out of a fullSave parameter blob using ranged reads,
// one independent read+decode per index. In degraded mode (rs), models
// whose range fails to read or decode are skipped instead of failing
// the call.
func (b *approachBase) readFullModels(ctx context.Context, meta setMeta, indices []int, rs *recoverSettings) (*PartialRecovery, error) {
	arch, err := b.loadArchBlob(b.layout.blobKey(meta.SetID, archFile))
	if err != nil {
		return nil, err
	}
	perModel := int64(arch.ParamBytes())
	key := b.layout.blobKey(meta.SetID, paramsFile)
	// Dedup saves persisted a chunk index: load it once and resolve
	// each model's chunks from it directly. Sets without one (plain
	// saves, pre-index stores) use ranged blob reads — same bytes.
	ix, err := b.loadChunkIndex(meta.SetID)
	if err != nil {
		return nil, err
	}
	models := make([]*nn.Model, len(indices))
	err = pool.Run(ctx, b.workers, len(indices), func(k int) error {
		idx := indices[k]
		one := func() error {
			var raw []byte
			var err error
			if ix != nil {
				raw, err = b.blobs.GetIndexed(ix, int64(idx)*perModel, perModel)
				err = mapCorrupt(err)
			} else {
				raw, err = b.getBlobRange(key, int64(idx)*perModel, perModel)
			}
			if err != nil {
				return fmt.Errorf("core: reading model %d: %w", idx, err)
			}
			m, err := nn.NewModelUninitialized(arch)
			if err != nil {
				return err
			}
			if _, err := m.SetParamBytes(raw); err != nil {
				return fmt.Errorf("core: recovering model %d: %w", idx, err)
			}
			models[k] = m
			return nil
		}
		if err := one(); err != nil && !rs.skip(idx, err) {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &PartialRecovery{Arch: arch, Models: make(map[int]*nn.Model, len(indices))}
	for k, idx := range indices {
		if models[k] != nil {
			out.Models[idx] = models[k]
		}
	}
	return out, nil
}

// readFullModels implements approachImpl for MMlibBase: load exactly
// the selected models' bundles.
func (m *MMlibBase) readFullModels(ctx context.Context, meta setMeta, idx []int, rs *recoverSettings) (*PartialRecovery, error) {
	setID := meta.SetID
	models := make([]*nn.Model, len(idx))
	archs := make([]*nn.Architecture, len(idx))
	err := pool.Run(ctx, m.workers, len(idx), func(k int) error {
		model, arch, err := m.recoverOne(setID, idx[k])
		if err != nil {
			if rs.skip(idx[k], err) {
				return nil
			}
			return err
		}
		models[k] = model
		archs[k] = arch
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &PartialRecovery{Models: make(map[int]*nn.Model, len(idx))}
	for k, i := range idx {
		if models[k] != nil {
			out.Models[i] = models[k]
			out.Arch = archs[k]
		}
	}
	return out, nil
}

// recoverOne loads one model the MMlib way (all three documents plus
// both blobs).
func (m *MMlibBase) recoverOne(setID string, i int) (*nn.Model, *nn.Architecture, error) {
	modelID := mmlibModelID(setID, i)
	var mm modelMeta
	if err := m.stores.Docs.Get(mmlibMetaCollection, modelID, &mm); err != nil {
		return nil, nil, fmt.Errorf("core: loading metadata of model %d: %w", i, err)
	}
	var ed envDoc
	if err := m.stores.Docs.Get(mmlibEnvCollection, mm.EnvDocID, &ed); err != nil {
		return nil, nil, fmt.Errorf("core: loading env of model %d: %w", i, err)
	}
	var cd codeDoc
	if err := m.stores.Docs.Get(mmlibCodeCollection, mm.CodeDocID, &cd); err != nil {
		return nil, nil, fmt.Errorf("core: loading code of model %d: %w", i, err)
	}
	arch, err := m.loadArchBlob(mmlibBlobKey(setID, i, archFile))
	if err != nil {
		return nil, nil, fmt.Errorf("core: loading arch of model %d: %w", i, err)
	}
	raw, err := m.getBlob(mmlibBlobKey(setID, i, paramsFile))
	if err != nil {
		return nil, nil, fmt.Errorf("core: loading params of model %d: %w", i, err)
	}
	model, err := nn.NewModelUninitialized(arch)
	if err != nil {
		return nil, nil, err
	}
	if err := unframeParams(model, raw); err != nil {
		return nil, nil, fmt.Errorf("core: parsing params of model %d: %w", i, err)
	}
	return model, arch, nil
}

// paramByteSizes returns the byte size of each parameter tensor in
// dictionary order — what locating a diff entry inside the blob needs.
func paramByteSizes(arch *nn.Architecture) []int {
	var sizes []int
	for _, l := range arch.Layers {
		switch l.Kind {
		case nn.KindLinear:
			sizes = append(sizes, 4*l.In*l.Out, 4*l.Out)
		case nn.KindConv2D:
			sizes = append(sizes, 4*l.InChannels*l.OutChannels*l.Kernel*l.Kernel, 4*l.OutChannels)
		}
	}
	return sizes
}

// applyModels implements approachImpl for Update: apply only the
// selected models' diff segments, located by computed offsets, and
// verify them against only those models' rows of the hash table.
func (u *Update) applyModels(ctx context.Context, meta setMeta, base *PartialRecovery, idx []int, rs *recoverSettings) error {
	setID := meta.SetID
	var diff diffDoc
	if err := u.stores.Docs.Get(updateDiffCollection, setID, &diff); err != nil {
		return fmt.Errorf("core: loading diff list: %w", err)
	}

	// A selected model's entries apply in order, one unit of work per
	// model. Only selected models have a key; nil means no entry yet.
	type application struct {
		e   diffEntry
		off int64
	}
	perModel := make(map[int][]application, len(idx))
	for _, i := range idx {
		perModel[i] = nil
	}
	sizes := paramByteSizes(base.Arch)
	blobKey := u.layout.blobKey(setID, diffFile)

	// Walk the diff list once to locate the wanted entries' offsets; the
	// selected segments then read and apply independently. The walk also
	// yields the blob's total (decompressed) size, which bounds the
	// decompression of compressed blobs below.
	var changed []int
	seen := make(map[diffEntry]bool)
	var off int64
	for _, e := range diff.Entries {
		if e.P < 0 || e.P >= len(sizes) {
			return fmt.Errorf("core: diff references parameter %d of model %d", e.P, e.M)
		}
		if apps, wanted := perModel[e.M]; wanted {
			if seen[e] {
				return fmt.Errorf("core: duplicate diff entry (%d,%d): %w", e.M, e.P, ErrCorruptBlob)
			}
			seen[e] = true
			if apps == nil {
				changed = append(changed, e.M)
			}
			perModel[e.M] = append(apps, application{e: e, off: off})
		}
		off += int64(sizes[e.P])
	}
	if len(changed) == 0 {
		return nil // this level changed none of the selected models
	}

	// An encoded blob has no stable offsets; fall back to reading and
	// decoding it whole — capped at the size the diff list implies.
	// Raw blobs support ranged reads.
	var whole []byte
	if id := diffCodecID(diff); id != "" {
		raw, err := u.getBlob(blobKey)
		if err != nil {
			return fmt.Errorf("core: loading diff blob: %w", err)
		}
		if whole, err = decodeDiffBlob(u.metrics.reg, raw, int(off), id); err != nil {
			return err
		}
	}
	hashRow, err := u.openHashRows(meta, len(sizes))
	if err != nil {
		return err
	}

	return pool.Run(ctx, u.workers, len(changed), func(k int) error {
		m := changed[k]
		one := func() error {
			model, ok := base.Models[m]
			if !ok {
				return fmt.Errorf("core: base recovery missing model %d", m)
			}
			stored, err := hashRow(m)
			if err != nil {
				return fmt.Errorf("core: reading hashes of model %d: %w", m, err)
			}
			params := model.Params()
			for _, a := range perModel[m] {
				p, size := a.e.P, int64(sizes[a.e.P])
				var segment []byte
				if whole != nil {
					if a.off+size > int64(len(whole)) {
						return fmt.Errorf("core: diff blob truncated at model %d: %w", m, ErrCorruptBlob)
					}
					segment = whole[a.off : a.off+size]
				} else if segment, err = u.getBlobRange(blobKey, a.off, size); err != nil {
					return fmt.Errorf("core: reading diff of model %d: %w", m, err)
				}
				t := params[p].Tensor
				if diff.Delta {
					_, err = t.XORFromBytes(segment)
				} else {
					_, err = t.SetFromBytes(segment)
				}
				if err != nil {
					return fmt.Errorf("core: applying diff for model %d param %d: %w", m, p, err)
				}
				if got := hashing.Tensor(t); !bytes.Equal(got[:], hashAt(stored, p)) {
					return fmt.Errorf("core: model %d param %d hash mismatch after applying diff: %w", m, p, ErrCorruptBlob)
				}
			}
			return nil
		}
		// In degraded mode a failed diff application drops model m
		// (rs.finish strips it even if some entries applied cleanly); the
		// other requested models keep recovering.
		if err := one(); err != nil && !rs.skip(m, err) {
			return err
		}
		return nil
	})
}

// applyModels implements approachImpl for Provenance: re-execute only
// the selected models' trainings.
func (p *Provenance) applyModels(ctx context.Context, meta setMeta, base *PartialRecovery, idx []int, rs *recoverSettings) error {
	setID := meta.SetID
	var train TrainInfo
	if err := p.stores.Docs.Get(provenanceTrainCollection, setID, &train); err != nil {
		return fmt.Errorf("core: loading training info: %w", err)
	}
	if current := env.Capture(); !train.Environment.Equal(current) {
		return fmt.Errorf("core: recorded environment does not match current; provenance recovery would not reproduce the saved models")
	}
	var updates updatesDoc
	if err := p.stores.Docs.Get(provenanceUpdateCollection, setID, &updates); err != nil {
		return fmt.Errorf("core: loading update records: %w", err)
	}
	wanted := make(map[int]bool, len(idx))
	for _, i := range idx {
		wanted[i] = true
	}
	// Parallel across models, recorded order within each model — same
	// grouping as full recovery.
	order := make([]int, 0, len(idx))
	perModel := make(map[int][]ModelUpdate)
	for _, u := range updates.Updates {
		if !wanted[u.ModelIndex] {
			continue
		}
		if _, ok := perModel[u.ModelIndex]; !ok {
			order = append(order, u.ModelIndex)
		}
		perModel[u.ModelIndex] = append(perModel[u.ModelIndex], u)
	}
	return pool.Run(ctx, p.workers, len(order), func(k int) error {
		idx := order[k]
		one := func() error {
			for _, u := range perModel[idx] {
				model, ok := base.Models[idx]
				if !ok {
					return fmt.Errorf("core: base recovery missing model %d", idx)
				}
				data, err := p.stores.Datasets.Materialize(u.DatasetID)
				if err != nil {
					return fmt.Errorf("core: resolving dataset of model %d: %w", u.ModelIndex, err)
				}
				cfg := train.Config
				cfg.Seed = u.Seed
				cfg.TrainLayers = u.TrainLayers
				if _, err := nn.Train(model, data, cfg); err != nil {
					return fmt.Errorf("core: re-training model %d: %w", u.ModelIndex, err)
				}
			}
			return nil
		}
		if err := one(); err != nil && !rs.skip(idx, err) {
			return err
		}
		return nil
	})
}
