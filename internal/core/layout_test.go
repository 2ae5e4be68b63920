package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/mmm-go/mmm/internal/storage/cas"
)

// mustOpen opens a registered approach or fails the test.
func mustOpen(t *testing.T, name string, st Stores, opts ...Option) Approach {
	t.Helper()
	a, err := Open(name, st, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// saveLayoutChain saves a U1→U3-1→U3-2 chain and returns the set IDs
// and the final model state.
func saveLayoutChain(t *testing.T, a Approach, st Stores) ([]string, *ModelSet) {
	t.Helper()
	set := mustNewSet(t, 4)
	ids := []string{mustSave(t, a, SaveRequest{Set: set}).SetID}
	for cycle := 1; cycle <= 2; cycle++ {
		ups := runCycle(t, set, st.Datasets, cycle, []int{cycle - 1}, []int{cycle + 1})
		res := mustSave(t, a, SaveRequest{Set: set, Base: ids[len(ids)-1], Updates: ups, Train: testTrainInfo()})
		ids = append(ids, res.SetID)
	}
	return ids, set
}

func TestOpenRegistry(t *testing.T) {
	names := ApproachNames()
	if len(names) != 4 {
		t.Fatalf("ApproachNames = %v, want four approaches", names)
	}
	labels := map[string]bool{}
	for _, name := range names {
		labels[mustOpen(t, name, NewMemStores()).Name()] = true
	}
	if len(labels) != 4 {
		t.Errorf("registry names open %d distinct approaches, want 4", len(labels))
	}
	if _, err := Open("nope", NewMemStores()); err == nil || !strings.Contains(err.Error(), "unknown approach") {
		t.Errorf("unknown name: err = %v", err)
	}
}

// TestLayoutOperations drives every operation derived from the layout
// table over every registered approach, plain and deduplicated.
func TestLayoutOperations(t *testing.T) {
	for _, name := range ApproachNames() {
		for _, dedup := range []bool{false, true} {
			variant := name + "/plain"
			var opts []Option
			if dedup {
				variant, opts = name+"/dedup", []Option{WithDedup()}
			}
			t.Run(variant, func(t *testing.T) {
				st := NewMemStores()
				a := mustOpen(t, name, st, opts...)
				ids, truth := saveLayoutChain(t, a, st)
				chained := len(mustLineage(t, a, ids[2])) > 1

				listed, err := a.(interface{ SetIDs() ([]string, error) }).SetIDs()
				if err != nil || len(listed) != 3 {
					t.Fatalf("SetIDs = %v, %v", listed, err)
				}

				// Lineage: derived sets chain back to their full snapshot.
				chain := mustLineage(t, a, ids[2])
				if chained && (len(chain) != 3 || chain[2].SetID != ids[0] || chain[2].Kind != "full") {
					t.Errorf("lineage = %+v", chain)
				}
				if _, err := a.(Lineager).Lineage("nope"); !errors.Is(err, ErrSetNotFound) {
					t.Errorf("lineage of unknown set: %v", err)
				}

				// PullSource: only full snapshots with one params blob.
				ps := a.(PullSourcer)
				src, err := ps.PullSource(ids[0])
				switch {
				case name == "mmlib":
					if !errors.Is(err, ErrPullUnavailable) {
						t.Errorf("per-model pull source: %v", err)
					}
				case err != nil || src.NumModels != 4 || !strings.HasSuffix(src.ParamsKey, ids[0]+"/params.bin"):
					t.Errorf("pull source = %+v, %v", src, err)
				}
				if _, err := ps.PullSource(ids[2]); chained && !errors.Is(err, ErrPullUnavailable) {
					t.Errorf("derived pull source: %v", err)
				}
				if _, err := ps.PullSource("nope"); !errors.Is(err, ErrSetNotFound) {
					t.Errorf("pull source of unknown set: %v", err)
				}

				mustBeClean(t, a, st, 3)

				// Export → Import carries the whole chain.
				var buf bytes.Buffer
				if err := a.(Exporter).Export(ids[2], &buf); err != nil {
					t.Fatal(err)
				}
				dst := NewMemStores()
				if err := ImportArchive(dst, &buf); err != nil {
					t.Fatal(err)
				}
				imported := mustOpen(t, name, dst)
				if got := mustRecover(t, imported, ids[2]); !got.Equal(truth) {
					t.Error("imported set recovers differently")
				}
				mustBeClean(t, imported, dst, len(chain))

				// Prune keeps exactly the chain closure of the keep list.
				report, err := a.(Pruner).Prune([]string{ids[2]})
				if err != nil {
					t.Fatal(err)
				}
				if len(report.Kept) != len(chain) || len(report.Deleted) != 3-len(chain) {
					t.Errorf("prune report = %+v, chain length %d", report, len(chain))
				}
				if !chained && report.FreedBytes <= 0 {
					t.Error("prune freed nothing")
				}
				if got := mustRecover(t, a, ids[2]); !got.Equal(truth) {
					t.Error("kept set recovers differently after prune")
				}
				mustBeClean(t, a, st, len(chain))
				if _, err := a.(Pruner).Prune([]string{"nope"}); err == nil {
					t.Error("pruning to an unknown set accepted")
				}
			})
		}
	}
}

func mustLineage(t *testing.T, a Approach, setID string) []SetInfo {
	t.Helper()
	chain, err := a.(Lineager).Lineage(setID)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) == 0 || chain[0].SetID != setID {
		t.Fatalf("lineage of %s = %+v", setID, chain)
	}
	return chain
}

// mustBeClean asserts VerifyStore and Fsck find nothing and Du lists
// the expected number of sets.
func mustBeClean(t *testing.T, a Approach, st Stores, sets int) {
	t.Helper()
	issues, err := a.(Verifier).VerifyStore()
	if err != nil || len(issues) != 0 {
		t.Errorf("VerifyStore = %v, %v", issues, err)
	}
	report, err := Fsck(st, FsckOptions{})
	if err != nil || !report.Clean() || report.Sets != sets {
		t.Errorf("Fsck = %+v, %v; want clean with %d sets", report, err, sets)
	}
	du, err := Du(st)
	if err != nil || len(du.Sets) != sets {
		t.Errorf("Du = %+v, %v; want %d sets", du, err, sets)
	}
}

// TestSetIDNotReusedAfterPruneAndReopen: the allocator used to resume
// from the *count* of stored sets, so after a prune a reopened store
// handed out the ID of a live set and the save overwrote it.
func TestSetIDNotReusedAfterPruneAndReopen(t *testing.T) {
	for _, name := range ApproachNames() {
		t.Run(name, func(t *testing.T) {
			st := NewMemStores()
			a := mustOpen(t, name, st)
			kept := mustNewSet(t, 3)
			mustSave(t, a, SaveRequest{Set: mustNewSet(t, 2)})
			mustSave(t, a, SaveRequest{Set: mustNewSet(t, 2)})
			keep := mustSave(t, a, SaveRequest{Set: kept}).SetID
			if _, err := a.(Pruner).Prune([]string{keep}); err != nil {
				t.Fatal(err)
			}

			reopened := mustOpen(t, name, st)
			seen := map[string]bool{keep: true}
			for i := 0; i < 2; i++ {
				id := mustSave(t, reopened, SaveRequest{Set: mustNewSet(t, 2)}).SetID
				if seen[id] {
					t.Fatalf("save %d after reopen was handed the live ID %s", i+1, id)
				}
				seen[id] = true
			}
			if got := mustRecover(t, reopened, keep); !got.Equal(kept) {
				t.Fatal("kept set was overwritten")
			}
		})
	}
}

// TestGarbledRecipeIsCorruptBlob rewrites CAS recipes through the blob
// store (so their checksums are valid) with bytes that are not a
// consistent recipe: every read path must fail with ErrCorruptBlob.
func TestGarbledRecipeIsCorruptBlob(t *testing.T) {
	cases := []struct {
		name, file, recipe string
	}{
		{"invalid JSON", archFile, `{"size": 165, "chunks": [`},
		{"wrong size sum", paramsFile, `{"size":7,"chunks":[{"h":"` + strings.Repeat("ab", 32) + `","s":3}]}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewMemStores()
			b := NewBaseline(st, WithDedup())
			id := mustSave(t, b, SaveRequest{Set: mustNewSet(t, 3)}).SetID
			key := baselineLayout.blobKey(id, tc.file)
			if err := st.Blobs.Put(cas.RecipeKey(key), []byte(tc.recipe)); err != nil {
				t.Fatal(err)
			}

			if _, err := b.Recover(id); !errors.Is(err, ErrCorruptBlob) {
				t.Errorf("Recover: %v, want ErrCorruptBlob", err)
			}
			if _, err := blobSize(st, key); !errors.Is(err, ErrCorruptBlob) {
				t.Errorf("blobSize: %v, want ErrCorruptBlob", err)
			}
			if tc.file == archFile { // params reads go through the chunk index instead
				if _, err := b.RecoverModels(id, []int{1}); !errors.Is(err, ErrCorruptBlob) {
					t.Errorf("RecoverModels: %v, want ErrCorruptBlob", err)
				}
			}
			issues, err := b.VerifyStore()
			if err != nil || len(issues) != 1 || !strings.Contains(issues[0].Problem, "corrupt") {
				t.Errorf("VerifyStore = %v, %v; want one corrupt-blob issue", issues, err)
			}
		})
	}
}
