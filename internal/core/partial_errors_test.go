package core

import (
	"errors"
	"fmt"
	"testing"
)

// deltaSave produces a two-save chain (full base + one incremental)
// under the given approach and returns the base and delta set IDs.
func deltaSave(t *testing.T, a Approach, st Stores, set *ModelSet) (string, string) {
	t.Helper()
	base := mustSave(t, a, SaveRequest{Set: set, Train: testTrainInfo()})
	updates := runCycle(t, set, st.Datasets, 1, []int{1}, []int{3})
	delta := mustSave(t, a, SaveRequest{
		Set: set, Base: base.SetID, Updates: updates, Train: testTrainInfo(),
	})
	return base.SetID, delta.SetID
}

// TestPartialRecoveryErrorPaths sabotages one stored artifact at a
// time and asserts selective recovery fails loudly — never a panic,
// never silently wrong models. Each case builds a fresh store, saves,
// breaks exactly one piece, and recovers.
func TestPartialRecoveryErrorPaths(t *testing.T) {
	cases := []struct {
		name string
		// setup saves into st and returns the recoverer plus the set ID
		// to recover after sabotage.
		setup func(t *testing.T, st Stores) (PartialRecoverer, string)
		// sabotage breaks one artifact of the set (or its chain).
		sabotage func(t *testing.T, st Stores, setID string)
		indices  []int
		// wantErr, when non-nil, must match via errors.Is.
		wantErr error
	}{
		{
			name: "baseline missing arch blob",
			setup: func(t *testing.T, st Stores) (PartialRecoverer, string) {
				b := NewBaseline(st)
				return b, mustSave(t, b, SaveRequest{Set: mustNewSet(t, 4)}).SetID
			},
			sabotage: func(t *testing.T, st Stores, setID string) {
				mustDeleteBlob(t, st, baselineBlobPrefix+"/"+setID+"/arch.json")
			},
			indices: []int{0},
		},
		{
			name: "baseline missing params blob",
			setup: func(t *testing.T, st Stores) (PartialRecoverer, string) {
				b := NewBaseline(st)
				return b, mustSave(t, b, SaveRequest{Set: mustNewSet(t, 4)}).SetID
			},
			sabotage: func(t *testing.T, st Stores, setID string) {
				mustDeleteBlob(t, st, baselineBlobPrefix+"/"+setID+"/params.bin")
			},
			indices: []int{1, 2},
		},
		{
			name: "baseline truncated params blob",
			setup: func(t *testing.T, st Stores) (PartialRecoverer, string) {
				b := NewBaseline(st)
				return b, mustSave(t, b, SaveRequest{Set: mustNewSet(t, 4)}).SetID
			},
			sabotage: func(t *testing.T, st Stores, setID string) {
				key := baselineBlobPrefix + "/" + setID + "/params.bin"
				raw, err := st.Blobs.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Blobs.Put(key, raw[:len(raw)/2]); err != nil {
					t.Fatal(err)
				}
			},
			// Only the last model's range is gone; earlier ones survive.
			indices: []int{3},
		},
		{
			name: "baseline unknown set",
			setup: func(t *testing.T, st Stores) (PartialRecoverer, string) {
				return NewBaseline(st), "bl-does-not-exist"
			},
			sabotage: func(*testing.T, Stores, string) {},
			indices:  []int{0},
			wantErr:  ErrSetNotFound,
		},
		{
			name: "mmlib missing model metadata doc",
			setup: func(t *testing.T, st Stores) (PartialRecoverer, string) {
				m := NewMMlibBase(st)
				return m, mustSave(t, m, SaveRequest{Set: mustNewSet(t, 4)}).SetID
			},
			sabotage: func(t *testing.T, st Stores, setID string) {
				mustDeleteDoc(t, st, mmlibMetaCollection, fmt.Sprintf("%s-m%05d", setID, 2))
			},
			indices: []int{2},
		},
		{
			name: "mmlib missing model params blob",
			setup: func(t *testing.T, st Stores) (PartialRecoverer, string) {
				m := NewMMlibBase(st)
				return m, mustSave(t, m, SaveRequest{Set: mustNewSet(t, 4)}).SetID
			},
			sabotage: func(t *testing.T, st Stores, setID string) {
				mustDeleteBlob(t, st, fmt.Sprintf("%s/%s/%d/params.bin", mmlibBlobPrefix, setID, 1))
			},
			indices: []int{1},
		},
		{
			name: "update delta missing diff list doc",
			setup: func(t *testing.T, st Stores) (PartialRecoverer, string) {
				u := NewUpdate(st)
				_, delta := deltaSave(t, u, st, mustNewSet(t, 5))
				return u, delta
			},
			sabotage: func(t *testing.T, st Stores, setID string) {
				mustDeleteDoc(t, st, updateDiffCollection, setID)
			},
			indices: []int{1},
		},
		{
			name: "update delta missing hash table",
			setup: func(t *testing.T, st Stores) (PartialRecoverer, string) {
				u := NewUpdate(st)
				_, delta := deltaSave(t, u, st, mustNewSet(t, 5))
				return u, delta
			},
			sabotage: func(t *testing.T, st Stores, setID string) {
				mustDeleteBlob(t, st, updateBlobPrefix+"/"+setID+"/hashes.bin")
			},
			// Model 1 was retrained in the cycle, so its row is needed to
			// verify the applied diff.
			indices: []int{1},
		},
		{
			name: "update delta missing diff blob",
			setup: func(t *testing.T, st Stores) (PartialRecoverer, string) {
				u := NewUpdate(st)
				_, delta := deltaSave(t, u, st, mustNewSet(t, 5))
				return u, delta
			},
			sabotage: func(t *testing.T, st Stores, setID string) {
				mustDeleteBlob(t, st, updateBlobPrefix+"/"+setID+"/diff.bin")
			},
			// Model 1 was fully retrained in the cycle, so its diff
			// segments live in the deleted blob.
			indices: []int{1},
		},
		{
			name: "update delta missing base layer",
			setup: func(t *testing.T, st Stores) (PartialRecoverer, string) {
				u := NewUpdate(st)
				base, delta := deltaSave(t, u, st, mustNewSet(t, 5))
				mustDeleteDoc(t, st, updateCollection, base)
				return u, delta
			},
			sabotage: func(*testing.T, Stores, string) {},
			indices:  []int{0},
			wantErr:  ErrSetNotFound,
		},
		{
			name: "provenance delta missing train doc",
			setup: func(t *testing.T, st Stores) (PartialRecoverer, string) {
				p := NewProvenance(st)
				_, delta := deltaSave(t, p, st, mustNewSet(t, 5))
				return p, delta
			},
			sabotage: func(t *testing.T, st Stores, setID string) {
				mustDeleteDoc(t, st, provenanceTrainCollection, setID)
			},
			indices: []int{1},
		},
		{
			name: "provenance delta missing update records",
			setup: func(t *testing.T, st Stores) (PartialRecoverer, string) {
				p := NewProvenance(st)
				_, delta := deltaSave(t, p, st, mustNewSet(t, 5))
				return p, delta
			},
			sabotage: func(t *testing.T, st Stores, setID string) {
				mustDeleteDoc(t, st, provenanceUpdateCollection, setID)
			},
			indices: []int{1},
		},
		{
			name: "provenance delta missing base layer",
			setup: func(t *testing.T, st Stores) (PartialRecoverer, string) {
				p := NewProvenance(st)
				base, delta := deltaSave(t, p, st, mustNewSet(t, 5))
				mustDeleteDoc(t, st, provenanceCollection, base)
				return p, delta
			},
			sabotage: func(*testing.T, Stores, string) {},
			indices:  []int{2},
			wantErr:  ErrSetNotFound,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewMemStores()
			r, setID := tc.setup(t, st)
			tc.sabotage(t, st, setID)
			rec, err := r.RecoverModels(setID, tc.indices)
			if err == nil {
				t.Fatalf("sabotaged recovery succeeded with %d models", len(rec.Models))
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("got %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func mustDeleteBlob(t *testing.T, st Stores, key string) {
	t.Helper()
	if err := st.Blobs.Delete(key); err != nil {
		t.Fatalf("deleting blob %s: %v", key, err)
	}
}

func mustDeleteDoc(t *testing.T, st Stores, collection, id string) {
	t.Helper()
	if err := st.Docs.Delete(collection, id); err != nil {
		t.Fatalf("deleting doc %s/%s: %v", collection, id, err)
	}
}
