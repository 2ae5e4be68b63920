package core

import (
	"context"
	"fmt"

	"github.com/mmm-go/mmm/internal/core/pool"
	"github.com/mmm-go/mmm/internal/env"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/tensor"
)

// Provenance is the paper's provenance approach: derived model sets are
// represented by the information needed to reproduce their training
// rather than by parameters. Per derived set it saves the model
// metadata, the training info, and the environment exactly once, plus
// one dataset *reference* per updated model (optimization O2: the
// pipeline information is not duplicated per model, and the training
// data — which exists anyway — is referenced, not copied).
//
// Recovery is recursive and compute-bound: recover the base set, then
// "update every model by deterministically repeating its training on
// the associated dataset". Because this library's trainer is
// bit-deterministic, recovery is exact.
type Provenance struct {
	approachBase

	// RecoveryBudget, when non-nil, caps the retraining work during
	// recovery — the paper's own measurement trick ("we — exclusively
	// for this approach — only train one model with reduced data per
	// iteration. This leads to the same trends for the TTR"). Budgeted
	// recovery preserves timing shape but is NOT exact; leave nil for
	// correct recovery.
	RecoveryBudget *RecoveryBudget
	// SnapshotInterval k > 0 forces a full snapshot whenever the
	// recovery chain would otherwise grow to k, bounding the recursive
	// retraining exactly like Update's snapshots bound its diff chains
	// (§2.2's intermediate-snapshot remedy applied to provenance).
	// 0 disables snapshots (the paper's evaluated configuration).
	SnapshotInterval int
}

// RecoveryBudget bounds provenance retraining during recovery.
type RecoveryBudget struct {
	// MaxUpdatesPerSet caps how many recorded updates are re-executed
	// per derived set (0 = all).
	MaxUpdatesPerSet int
	// MaxSamples truncates each training dataset (0 = full data).
	MaxSamples int
	// MaxEpochs caps the epochs of each re-executed training
	// (0 = recorded value).
	MaxEpochs int
}

// NewProvenance returns a Provenance approach over the given stores.
func NewProvenance(stores Stores, opts ...Option) *Provenance {
	p := &Provenance{}
	p.setup(provenanceLayout, p, stores, opts)
	return p
}

// updatesDoc persists the per-model update records of one derived set.
type updatesDoc struct {
	Updates []ModelUpdate `json:"updates"`
}

// write implements approachImpl. Initial sets are saved with
// Baseline's logic (complete representations); derived sets save
// provenance only.
func (p *Provenance) write(ctx context.Context, op *saveOp, setID string, req SaveRequest) error {
	full := req.Base == ""
	if !full && p.SnapshotInterval > 0 {
		baseMeta, err := loadMeta(p.stores, p.layout, req.Base)
		if err != nil {
			return fmt.Errorf("core: provenance save: %w", err)
		}
		// Cut the retraining chain with a full snapshot.
		full = baseMeta.Depth+1 >= p.SnapshotInterval
	}
	if full {
		return p.fullSave(ctx, op, setID, req, nil)
	}
	return p.saveDerived(ctx, op, setID, req)
}

func (p *Provenance) saveDerived(ctx context.Context, op *saveOp, setID string, req SaveRequest) error {
	if req.Train == nil {
		return fmt.Errorf("core: provenance save of a derived set requires training info")
	}
	if err := req.Train.Config.Validate(); err != nil {
		return fmt.Errorf("core: provenance training config: %w", err)
	}
	baseMeta, err := p.checkBase(req)
	if err != nil {
		return err
	}
	// Saving provenance that cannot be resolved would make the set
	// unrecoverable; fail fast instead.
	for _, u := range req.Updates {
		if _, err := p.stores.Datasets.Spec(u.DatasetID); err != nil {
			return fmt.Errorf("core: provenance save: update of model %d: %w", u.ModelIndex, err)
		}
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	// Training info and environment once per set, references per model.
	if err := op.insertDoc(provenanceTrainCollection, setID, req.Train); err != nil {
		return fmt.Errorf("core: writing training info: %w", err)
	}
	if err := op.insertDoc(provenanceUpdateCollection, setID, updatesDoc{Updates: req.Updates}); err != nil {
		return fmt.Errorf("core: writing update records: %w", err)
	}
	meta := op.newMeta(p.Name(), setID, req)
	meta.Kind, meta.Base, meta.Depth = "derived", req.Base, baseMeta.Depth+1
	if err := op.insertDoc(provenanceCollection, setID, meta); err != nil {
		return fmt.Errorf("core: writing metadata: %w", err)
	}
	return nil
}

// apply implements approachImpl: update every recorded model of the
// recovered base "by deterministically repeating its training on the
// associated dataset". Re-executed trainings are the single most
// compute-heavy loop in the repository; updates are grouped by model
// and retrained on the worker pool — parallel across models, in
// recorded order within each model, so the result is bit-identical at
// any concurrency.
func (p *Provenance) apply(ctx context.Context, meta setMeta, set *ModelSet) error {
	setID := meta.SetID
	var train TrainInfo
	if err := p.stores.Docs.Get(provenanceTrainCollection, setID, &train); err != nil {
		return fmt.Errorf("core: loading training info: %w", err)
	}
	// Exact reproduction is only defined for a matching environment.
	if current := env.Capture(); !train.Environment.Equal(current) {
		return fmt.Errorf("core: recorded environment (%s/%s, %s) does not match current (%s/%s, %s); provenance recovery would not reproduce the saved models",
			train.Environment.OS, train.Environment.Arch, train.Environment.FrameworkVer,
			current.OS, current.Arch, current.FrameworkVer)
	}
	var updates updatesDoc
	if err := p.stores.Docs.Get(provenanceUpdateCollection, setID, &updates); err != nil {
		return fmt.Errorf("core: loading update records: %w", err)
	}

	todo := updates.Updates
	if b := p.RecoveryBudget; b != nil && b.MaxUpdatesPerSet > 0 && len(todo) > b.MaxUpdatesPerSet {
		todo = todo[:b.MaxUpdatesPerSet]
	}
	// Group the re-executions by model: updates of distinct models are
	// independent, updates of one model must replay in recorded order.
	order := make([]int, 0, len(todo))
	perModel := make(map[int][]ModelUpdate, len(todo))
	for _, u := range todo {
		if u.ModelIndex < 0 || u.ModelIndex >= len(set.Models) {
			return fmt.Errorf("core: update record references model %d outside set of %d",
				u.ModelIndex, len(set.Models))
		}
		if _, ok := perModel[u.ModelIndex]; !ok {
			order = append(order, u.ModelIndex)
		}
		perModel[u.ModelIndex] = append(perModel[u.ModelIndex], u)
	}
	return pool.Run(ctx, p.workers, len(order), func(k int) error {
		for _, u := range perModel[order[k]] {
			data, err := p.stores.Datasets.Materialize(u.DatasetID)
			if err != nil {
				return fmt.Errorf("core: resolving dataset of model %d: %w", u.ModelIndex, err)
			}
			cfg := train.Config
			cfg.Seed = u.Seed
			cfg.TrainLayers = u.TrainLayers

			var trainData nn.Data = data
			if b := p.RecoveryBudget; b != nil {
				if b.MaxSamples > 0 && data.Len() > b.MaxSamples {
					trainData = truncatedData{data: data, n: b.MaxSamples}
				}
				if b.MaxEpochs > 0 && cfg.Epochs > b.MaxEpochs {
					cfg.Epochs = b.MaxEpochs
				}
			}
			if _, err := nn.Train(set.Models[u.ModelIndex], trainData, cfg); err != nil {
				return fmt.Errorf("core: re-training model %d: %w", u.ModelIndex, err)
			}
		}
		return nil
	})
}

// ChainDepth returns the recovery-chain length of setID.
func (p *Provenance) ChainDepth(setID string) (int, error) {
	meta, err := loadMeta(p.stores, p.layout, setID)
	return meta.Depth, err
}

// truncatedData exposes only the first n samples of data.
type truncatedData struct {
	data nn.Data
	n    int
}

// Len implements nn.Data.
func (t truncatedData) Len() int { return t.n }

// Sample implements nn.Data.
func (t truncatedData) Sample(i int) (*tensor.Tensor, *tensor.Tensor) {
	return t.data.Sample(i)
}
