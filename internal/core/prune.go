package core

import (
	"fmt"
	"sort"
)

// Retention: the paper archives every set ever generated, but a real
// deployment eventually expires old archives. Pruning must respect
// recovery chains — a derived Update or Provenance set is only
// recoverable while its whole base chain exists — so Prune expands the
// keep list to its chain closure before deleting anything.

// PruneReport summarizes a prune operation.
type PruneReport struct {
	// Kept lists the sets that remain, including bases added to keep
	// chains recoverable.
	Kept []string
	// Deleted lists the removed sets.
	Deleted []string
	// FreedBytes is the storage released from both stores.
	FreedBytes int64
}

// Pruner is implemented by approaches that can expire saved sets.
type Pruner interface {
	// Prune deletes every saved set not needed to recover the sets in
	// keep. Bases of kept derived sets are retained automatically.
	Prune(keep []string) (*PruneReport, error)
}

// chainCloser returns the base of a set ("" for full saves); pruning
// uses it to close keep lists over recovery chains.
type chainCloser func(setID string) (base string, err error)

// closeOverChains expands keep with every base reachable from it.
func closeOverChains(keep []string, baseOf chainCloser) (map[string]bool, error) {
	kept := map[string]bool{}
	var walk func(id string) error
	walk = func(id string) error {
		if kept[id] {
			return nil
		}
		kept[id] = true
		base, err := baseOf(id)
		if err != nil {
			return err
		}
		if base != "" {
			return walk(base)
		}
		return nil
	}
	for _, id := range keep {
		if err := walk(id); err != nil {
			return nil, err
		}
	}
	return kept, nil
}

// pruneSets removes all sets of one approach except the closure of
// keep. deleteSet must remove every artifact of one set and return the
// bytes it freed.
func pruneSets(all []string, keep []string, baseOf chainCloser,
	deleteSet func(setID string) (int64, error)) (*PruneReport, error) {

	for _, id := range keep {
		found := false
		for _, a := range all {
			if a == id {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("core: cannot keep unknown set %q", id)
		}
	}
	kept, err := closeOverChains(keep, baseOf)
	if err != nil {
		return nil, err
	}
	report := &PruneReport{}
	for id := range kept {
		report.Kept = append(report.Kept, id)
	}
	sort.Strings(report.Kept)
	for _, id := range all {
		if kept[id] {
			continue
		}
		freed, err := deleteSet(id)
		if err != nil {
			return nil, fmt.Errorf("core: pruning %q: %w", id, err)
		}
		report.Deleted = append(report.Deleted, id)
		report.FreedBytes += freed
	}
	sort.Strings(report.Deleted)
	return report, nil
}

// deleteBlobsWithPrefix removes all logical blobs under prefix — raw
// blobs and deduplicated ones alike — summing the bytes *physically*
// freed. Deleting a deduplicated blob releases its chunk references;
// chunks still referenced by kept sets survive and do not count, so
// PruneReport.FreedBytes stays honest under sharing.
func (b *approachBase) deleteBlobsWithPrefix(prefix string) (int64, error) {
	keys, err := b.blobs.Keys(prefix)
	if err != nil {
		return 0, err
	}
	var freed int64
	for _, k := range keys {
		n, err := b.blobs.Delete(k)
		freed += n
		if err != nil {
			return freed, mapCorrupt(err)
		}
	}
	return freed, nil
}

// Prune implements Pruner. For chained layouts, bases of kept derived
// sets are retained so their recovery chains stay intact. A set is
// deleted commit record first, then its other documents, then every
// blob under its prefix.
func (b *approachBase) Prune(keep []string) (*PruneReport, error) {
	all, err := b.SetIDs()
	if err != nil {
		return nil, err
	}
	l := b.layout
	baseOf := func(id string) (string, error) {
		if !l.chained {
			return "", nil
		}
		meta, err := loadMeta(b.stores, l, id)
		return meta.Base, err
	}
	return pruneSets(all, keep, baseOf, func(id string) (int64, error) {
		arts, err := l.artifactsOf(b.stores, id)
		if err != nil && len(arts.unsafeCols) > 0 {
			// Without metadata the set's documents cannot be enumerated.
			return 0, err
		}
		var freed int64
		for _, d := range arts.docs {
			if size, err := b.stores.Docs.Size(d.collection, d.id); err == nil {
				freed += size
			}
			if err := b.stores.Docs.Delete(d.collection, d.id); err != nil {
				return freed, err
			}
		}
		blobFreed, err := b.deleteBlobsWithPrefix(l.setPrefix(id))
		return freed + blobFreed, err
	})
}
