package core

import (
	"context"
	"testing"

	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/storage/backend"
)

// Disk-full regression: a save that hits ENOSPC at ANY write boundary
// must roll back to nothing — in particular no orphaned chunks in the
// dedup namespaces (zero residual raw keys subsumes that: no chunk,
// recipe, or manifest keys at all) — and
// the error must classify as a no-space condition end to end.
func TestDiskFullSaveRollsBackCleanly(t *testing.T) {
	builders := map[string]func(Stores) Approach{
		"Baseline":      func(st Stores) Approach { return NewBaseline(st, WithConcurrency(8)) },
		"BaselineDedup": func(st Stores) Approach { return NewBaseline(st, WithConcurrency(8), WithDedup()) },
		"MMlibBase":     func(st Stores) Approach { return NewMMlibBase(st, WithConcurrency(8)) },
		"UpdateDedup":   func(st Stores) Approach { return NewUpdate(st, WithConcurrency(8), WithDedup()) },
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			for k := 0; ; k++ {
				st, fBlob, _, rawBlob, rawDoc := faultyStores(dataset.NewRegistry())
				a := build(st)
				fBlob.FailPutsAfterWith(k, backend.ErrNoSpace)
				_, err := a.SaveContext(context.Background(), SaveRequest{Set: mustNewSet(t, 5)})
				if err == nil {
					if k == 0 {
						t.Fatal("save succeeded with every Put failing ENOSPC")
					}
					return // k grew past the save's write count
				}
				if !IsNoSpace(err) {
					t.Fatalf("k=%d: save failed with %v, want a no-space condition", k, err)
				}
				if keys := residualKeys(t, rawBlob, rawDoc); len(keys) != 0 {
					t.Fatalf("k=%d: disk-full save left residual keys %v", k, keys)
				}
			}
		})
	}
}

// The store must stay fsck-clean after a disk-full save even when the
// rollback itself is degraded (deletes failing while the disk thrashes):
// whatever debris remains classifies as orphans, never damage.
func TestDiskFullWithFailingRollbackIsRepairable(t *testing.T) {
	st, fBlob, _, rawBlob, rawDoc := faultyStores(dataset.NewRegistry())
	b := NewBaseline(st, WithConcurrency(8), WithDedup())
	fBlob.FailPutsAfterWith(4, backend.ErrNoSpace)
	fBlob.FailNextDeletes(1000)
	if _, err := b.SaveContext(context.Background(), SaveRequest{Set: mustNewSet(t, 5)}); err == nil {
		t.Fatal("save unexpectedly succeeded")
	}
	fBlob.FailNextDeletes(0)
	fBlob.FailPutsAfter(-1)
	if keys := residualKeys(t, rawBlob, rawDoc); len(keys) == 0 {
		t.Skip("rollback succeeded despite injected delete faults")
	}
	report, err := Fsck(st, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.Damaged() {
		t.Fatalf("disk-full debris misclassified as damage:\n%v", report.Issues)
	}
	if keys := residualKeys(t, rawBlob, rawDoc); len(keys) != 0 {
		t.Fatalf("fsck repair left residual keys %v", keys)
	}
}
