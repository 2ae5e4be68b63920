package core

import (
	"errors"
	"fmt"

	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/storage/backend"
)

// Store verification (fsck): saved sets are archives that may be kept
// for years; Verify walks every set of an approach and checks that its
// artifacts exist, have consistent sizes, and that recovery chains and
// dataset references resolve — without materializing any models.

// Issue is one problem found by verification.
type Issue struct {
	SetID   string
	Problem string
}

func (i Issue) String() string { return fmt.Sprintf("%s: %s", i.SetID, i.Problem) }

// Verifier is implemented by approaches that can check store integrity.
type Verifier interface {
	// VerifyStore checks every saved set and returns the issues found
	// (empty means the store is consistent).
	VerifyStore() ([]Issue, error)
}

// VerifyStore implements Verifier. The existence half follows from the
// layout alone: every committed set's documents and blobs must be
// present, derived sets' bases must exist, and base chains must reach
// a full snapshot. What the artifacts must *say* — sizes, coverage,
// resolvable references — is the approach's verifySet.
func (b *approachBase) VerifyStore() ([]Issue, error) {
	ids, err := b.SetIDs()
	if err != nil {
		return nil, err
	}
	st, l := b.stores, b.layout
	known := map[string]bool{}
	for _, id := range ids {
		known[id] = true
	}
	var issues []Issue
	if l.chained {
		issues = baseChainCycles(st, l, ids)
	}
	for _, id := range ids {
		meta, err := loadMeta(st, l, id)
		if err != nil {
			issues = append(issues, Issue{id, "metadata unreadable"})
			continue
		}
		if l.derived(meta) && !known[meta.Base] {
			issues = append(issues, Issue{id, fmt.Sprintf("base set %q missing — chain broken", meta.Base)})
		}
		arts := l.artifacts(l, id, &meta)
		for _, d := range arts.docs[1:] { // [0] is the metadata just read
			if ok, err := st.Docs.Exists(d.collection, d.id); err != nil || !ok {
				issues = append(issues, Issue{id, d.what + " missing"})
			}
		}
		for _, bl := range arts.blobs {
			if _, err := b.blobSize(bl.key); errors.Is(err, ErrCorruptBlob) {
				issues = append(issues, Issue{id, bl.what + " corrupt: " + err.Error()})
			} else if err != nil && !bl.optional {
				issues = append(issues, Issue{id, bl.what + " missing"})
			}
		}
		issues = append(issues, b.impl.verifySet(meta)...)
	}
	return issues, nil
}

// verifySet is the full-snapshot default: the parameter blob must hold
// exactly the set's parameters.
func (b *approachBase) verifySet(meta setMeta) []Issue {
	size, err := b.blobSize(b.layout.blobKey(meta.SetID, paramsFile))
	if want := int64(4 * meta.ParamCount * meta.NumModels); err == nil && size != want {
		return []Issue{{meta.SetID, fmt.Sprintf("parameter blob has %d bytes, want %d", size, want)}}
	}
	return nil
}

// verifySet implements approachImpl for MMlibBase: per-model bundles
// are self-describing; existence is all there is to check.
func (m *MMlibBase) verifySet(setMeta) []Issue { return nil }

// verifySet implements approachImpl for Update: the hash info must
// cover every model — a table by its header, which must also agree
// with the blob's size; a legacy document once decoded — and a raw
// diff blob must have exactly the size its diff list implies.
func (u *Update) verifySet(meta setMeta) []Issue {
	id := meta.SetID
	var issues []Issue
	var n int
	var err error
	if meta.HashTable {
		n, _, err = u.hashTableShape(id)
	} else {
		var t hashTable
		t, err = u.legacyHashes(id)
		n = t.n
	}
	switch {
	case backend.IsNotFound(err): // reported missing by the existence check
	case err != nil:
		issues = append(issues, Issue{id, "hash info unreadable: " + err.Error()})
	case n != meta.NumModels:
		issues = append(issues, Issue{id,
			fmt.Sprintf("hash info covers %d models, want %d", n, meta.NumModels)})
	}
	if meta.Kind == "full" {
		return append(issues, u.approachBase.verifySet(meta)...)
	}

	var diff diffDoc
	if err := u.stores.Docs.Get(updateDiffCollection, id, &diff); err != nil {
		if !backend.IsNotFound(err) {
			issues = append(issues, Issue{id, "diff document unreadable"})
		}
		return issues
	}
	size, err := u.blobSize(u.layout.blobKey(id, diffFile))
	if err != nil || diffCodecID(diff) != "" {
		return issues
	}
	arch, err := u.loadArchFromChain(meta)
	if err != nil {
		return append(issues, Issue{id, "cannot resolve architecture: " + err.Error()})
	}
	sizes := paramByteSizes(arch)
	var want int64
	for _, e := range diff.Entries {
		if e.P < 0 || e.P >= len(sizes) || e.M < 0 || e.M >= meta.NumModels {
			return append(issues, Issue{id, fmt.Sprintf("diff entry (%d,%d) out of range", e.M, e.P)})
		}
		want += int64(sizes[e.P])
	}
	if size != want {
		issues = append(issues, Issue{id,
			fmt.Sprintf("diff blob has %d bytes, diff list implies %d", size, want)})
	}
	return issues
}

// verifySet implements approachImpl for Provenance: the training
// config must be valid and every update record must name a model of
// the set and a dataset the registry resolves.
func (p *Provenance) verifySet(meta setMeta) []Issue {
	if meta.Kind == "full" {
		return p.approachBase.verifySet(meta)
	}
	id := meta.SetID
	var issues []Issue
	var train TrainInfo
	if err := p.stores.Docs.Get(provenanceTrainCollection, id, &train); err != nil {
		if !backend.IsNotFound(err) {
			issues = append(issues, Issue{id, "training info unreadable"})
		}
	} else if err := train.Config.Validate(); err != nil {
		issues = append(issues, Issue{id, "training config invalid: " + err.Error()})
	}
	var updates updatesDoc
	if err := p.stores.Docs.Get(provenanceUpdateCollection, id, &updates); err != nil {
		if !backend.IsNotFound(err) {
			issues = append(issues, Issue{id, "update records unreadable"})
		}
		return issues
	}
	for _, u := range updates.Updates {
		if u.ModelIndex < 0 || u.ModelIndex >= meta.NumModels {
			issues = append(issues, Issue{id,
				fmt.Sprintf("update references model %d outside set of %d", u.ModelIndex, meta.NumModels)})
		}
		if _, err := p.stores.Datasets.Spec(u.DatasetID); err != nil {
			issues = append(issues, Issue{id,
				fmt.Sprintf("dataset %q unresolvable — set unrecoverable", u.DatasetID)})
		}
	}
	return issues
}

// loadArchFromChain walks a derived set's chain to the full snapshot
// that stores the architecture. Cyclic chains terminate with an error
// instead of walking forever.
func (b *approachBase) loadArchFromChain(meta setMeta) (*nn.Architecture, error) {
	seen := map[string]bool{}
	for meta.Kind != "full" {
		if meta.Base == "" {
			return nil, fmt.Errorf("derived set %q has no base", meta.SetID)
		}
		if seen[meta.SetID] {
			return nil, fmt.Errorf("base chain contains a cycle at %q", meta.SetID)
		}
		seen[meta.SetID] = true
		var err error
		if meta, err = loadMeta(b.stores, b.layout, meta.Base); err != nil {
			return nil, err
		}
	}
	return b.loadArchBlob(b.layout.blobKey(meta.SetID, archFile))
}

// baseChainCycles reports every set whose base chain never reaches a
// full snapshot because the metadata forms a cycle. Such a set is
// unrecoverable (recovery fails with ErrCorruptBlob instead of
// recursing forever), so fsck must flag it. Clean walks are memoized,
// keeping the scan linear over healthy stores.
func baseChainCycles(st Stores, l *layout, ids []string) []Issue {
	var issues []Issue
	safe := map[string]bool{}
	for _, id := range ids {
		seen := map[string]bool{}
		cur := id
		cyclic := false
		for !safe[cur] {
			if seen[cur] {
				issues = append(issues, Issue{id, fmt.Sprintf("base chain contains a cycle at %q — set unrecoverable", cur)})
				cyclic = true
				break
			}
			seen[cur] = true
			meta, err := loadMeta(st, l, cur)
			if err != nil || meta.Kind == "full" || meta.Base == "" {
				// Terminates here; unreadable or missing bases are
				// reported by the per-set checks.
				break
			}
			cur = meta.Base
		}
		if !cyclic {
			for s := range seen {
				safe[s] = true
			}
		}
	}
	return issues
}
