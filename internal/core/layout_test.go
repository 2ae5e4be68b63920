package core

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/cas"
	"github.com/mmm-go/mmm/internal/storage/docstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
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
	for i, name := range ApproachNames() {
		l := layouts[i]
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

				blobSeamRoundTrip(t, l, dedup)
				faultedSaveLeavesNothing(t, l, opts)
			})
		}
	}
}

// blobSeamRoundTrip drives one logical blob of the layout's namespace
// through the seam every approach reads and writes through: put, get,
// ranged get, size, and a delete that frees exactly the physical bytes
// the put cost.
func blobSeamRoundTrip(t *testing.T, l *layout, dedup bool) {
	t.Helper()
	st, _, _, rawBlob, _ := faultyStores(dataset.NewRegistry())
	cs := cas.For(st.Blobs)
	op := &saveOp{st: st, blobs: cs, dedup: dedup, reg: obs.New()}
	key := l.blobKey("seam-1", paramsFile)
	data := make([]byte, 3000)
	for i := range data {
		data[i] = byte(i / 7)
	}
	res, err := op.put(key, data, cas.Hints{Stride: 1000}, dedup)
	if err != nil {
		t.Fatal(err)
	}
	if (len(res.Recipe.Chunks) > 0) != dedup || op.result("").BytesWritten != res.PhysicalBytes {
		t.Errorf("put = %+v, recorded %+v", res, op.result(""))
	}
	if got, err := cs.Get(key); err != nil || !bytes.Equal(got, data) {
		t.Errorf("Get: %v", err)
	}
	if got, err := cs.GetRange(key, 500, 1000); err != nil || !bytes.Equal(got, data[500:1500]) {
		t.Errorf("GetRange: %v", err)
	}
	if n, err := cs.Size(key); err != nil || n != 3000 {
		t.Errorf("Size = %d, %v", n, err)
	}
	if keys, err := cs.Keys(l.setPrefix("seam-1")); err != nil || len(keys) != 1 || keys[0] != key {
		t.Errorf("Keys = %v, %v", keys, err)
	}
	if freed, err := cs.Delete(key); err != nil || freed != res.PhysicalBytes {
		t.Errorf("Delete freed %d, %v; the put cost %d", freed, err, res.PhysicalBytes)
	}
	if _, err := cs.Get(key); !backend.IsNotFound(err) {
		t.Errorf("Get after Delete: %v, want NotFound", err)
	}
	if keys := residualKeys(t, rawBlob); len(keys) != 0 {
		t.Errorf("Delete left %v", keys)
	}
}

// peekOnPut runs fn before every write: a reader racing the save.
type peekOnPut struct {
	backend.Backend
	fn func()
}

func (p peekOnPut) Put(key string, data []byte) error {
	p.fn()
	return p.Backend.Put(key, data)
}

// faultedSaveLeavesNothing fails a save at each of its document writes
// in turn — the last is the commit record, by which time every blob is
// written — while a reader loads the set's chunk index into the cache
// just before each. The rollback must leave no raw blob, recipe, chunk,
// manifest or document, and no cached index entry.
func faultedSaveLeavesNothing(t *testing.T, l *layout, opts []Option) {
	t.Helper()
	for k := 0; ; k++ {
		st, _, fDoc, rawBlob, rawDoc := faultyStores(dataset.NewRegistry())
		cs := cas.For(st.Blobs)
		indexKey := l.blobKey("seam-1", chunkIndexFile)
		st.Docs = docstore.New(peekOnPut{fDoc, func() { _, _ = cs.LoadIndex(indexKey) }}, latency.CostModel{}, nil)
		a := mustOpen(t, l.name, st, append([]Option{WithChunkCache(1 << 20), WithConcurrency(4)}, opts...)...)
		fDoc.FailPutsAfter(k)
		if _, err := a.Save(SaveRequest{Set: mustNewSet(t, 4), SetID: "seam-1"}); err == nil {
			if k == 0 {
				t.Fatal("save succeeded with every document write failing")
			}
			return
		}
		if keys := residualKeys(t, rawBlob, rawDoc); len(keys) != 0 {
			t.Fatalf("k=%d: rolled-back save left %v", k, keys)
		}
		if ix, err := cs.LoadIndex(indexKey); ix != nil || err != nil {
			t.Fatalf("k=%d: rolled-back save left a cached chunk index (%v)", k, err)
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
			if _, err := b.blobSize(key); !errors.Is(err, ErrCorruptBlob) {
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

// TestMissingChunkIsCorruptBlob deletes one chunk from under a
// committed dedup set. The set's blobs still exist — their recipes say
// so — which means every read path must fail with ErrCorruptBlob, not
// with a NotFound for a logical blob that is there, and not untyped.
func TestMissingChunkIsCorruptBlob(t *testing.T) {
	for i, name := range ApproachNames() {
		l := layouts[i]
		for _, mode := range []string{"full", "selective"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				st := NewMemStores()
				a := mustOpen(t, name, st, WithDedup())
				id := mustSave(t, a, SaveRequest{Set: mustNewSet(t, 3)}).SetID
				cs := cas.For(st.Blobs)
				keys, err := cs.Keys(l.setPrefix(id))
				if err != nil {
					t.Fatal(err)
				}
				for _, key := range keys {
					if !strings.HasSuffix(key, paramsFile) {
						continue
					}
					r, err := cs.Recipe(key)
					if err != nil {
						t.Fatal(err)
					}
					// The first chunk holds model 0 in every layout.
					if err := st.Blobs.Delete(cas.ChunkKey(r.Chunks[0].Hash)); err != nil {
						t.Fatal(err)
					}
					break
				}
				check := func(what string, err error) {
					t.Helper()
					if !errors.Is(err, ErrCorruptBlob) || backend.IsNotFound(err) || errors.Is(err, ErrSetNotFound) {
						t.Errorf("%s: %v, want ErrCorruptBlob and no kind of not-found", what, err)
					}
				}
				if mode == "full" {
					_, err := a.Recover(id)
					check("Recover", err)
					check("Export", a.(Exporter).Export(id, io.Discard))
					return
				}
				_, err = a.(PartialRecoverer).RecoverModels(id, []int{0})
				check("RecoverModels", err)
				// Without the chunk index the same read goes through the
				// recipe's ranged path.
				if _, err := cs.Delete(l.blobKey(id, chunkIndexFile)); err != nil {
					t.Fatal(err)
				}
				_, err = a.(PartialRecoverer).RecoverModels(id, []int{0})
				check("RecoverModels without index", err)
			})
		}
	}
}
