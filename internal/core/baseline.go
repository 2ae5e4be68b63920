package core

import "context"

// Baseline is the paper's first multi-model approach: it represents a
// set of n models by exactly three artifacts — one metadata document,
// one architecture definition, and one binary file concatenating all
// models' parameters. Compared to saving models individually this
// removes the redundant per-model metadata/architecture/keys (O1) and
// collapses O(n) store writes into O(1) (O3), while every set remains
// independently recoverable.
type Baseline struct {
	approachBase
}

// NewBaseline returns a Baseline approach over the given stores.
func NewBaseline(stores Stores, opts ...Option) *Baseline {
	b := &Baseline{}
	b.setup(baselineLayout, b, stores, opts)
	return b
}

// write implements approachImpl. Baseline treats initial and derived
// sets identically: every save is a full, self-contained snapshot, so
// req.Base and req.Updates are ignored by design.
func (b *Baseline) write(ctx context.Context, op *saveOp, setID string, req SaveRequest) error {
	return b.fullSave(ctx, op, setID, req, nil)
}
