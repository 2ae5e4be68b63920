package core

import (
	"errors"
	"testing"

	"github.com/mmm-go/mmm/internal/nn"
)

// saveUpdateChain drives a U1 + k×U3 scenario through an Update
// approach and returns the set IDs and the in-memory truth after each
// save.
func saveUpdateChain(t *testing.T, u *Update, st Stores, cycles int) (ids []string, truths []*ModelSet) {
	t.Helper()
	set := mustNewSet(t, 8)
	res := mustSave(t, u, SaveRequest{Set: set})
	ids = append(ids, res.SetID)
	truths = append(truths, set.Clone())
	for c := 1; c <= cycles; c++ {
		updates := runCycle(t, set, st.Datasets, c, []int{c % 8, (c + 3) % 8}, []int{(c + 5) % 8})
		res = mustSave(t, u, SaveRequest{Set: set, Base: ids[len(ids)-1], Updates: updates})
		ids = append(ids, res.SetID)
		truths = append(truths, set.Clone())
	}
	return ids, truths
}

func TestUpdateRoundTripAcrossCycles(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	ids, truths := saveUpdateChain(t, u, st, 3)
	for i, id := range ids {
		got := mustRecover(t, u, id)
		if !truths[i].Equal(got) {
			t.Fatalf("set %d (%s) recovered incorrectly", i, id)
		}
	}
}

func TestUpdateDerivedSavesAreSmall(t *testing.T) {
	// Paper proportions need the real model: with FFNN-48 and a 10%
	// update rate, a derived save (changed layers + hash info) is a
	// small fraction of a full snapshot.
	st := NewMemStores()
	u := NewUpdate(st)
	set := mustNewSetArch(t, nn.FFNN48(), 20)
	resFull := mustSave(t, u, SaveRequest{Set: set})

	updates := runCycle(t, set, st.Datasets, 1, []int{0}, []int{1})
	resDerived := mustSave(t, u, SaveRequest{Set: set, Base: resFull.SetID, Updates: updates})

	if resDerived.BytesWritten >= resFull.BytesWritten {
		t.Fatalf("derived save (%d B) not smaller than full save (%d B)",
			resDerived.BytesWritten, resFull.BytesWritten)
	}
	// 2 of 20 models changed (one fully, one partially): the derived
	// save must stay well under half of a full snapshot even with hash
	// info included.
	if resDerived.BytesWritten > resFull.BytesWritten/2 {
		t.Fatalf("derived save too large: %d vs full %d", resDerived.BytesWritten, resFull.BytesWritten)
	}
}

func TestUpdateDiffListMatchesTraining(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	set := mustNewSet(t, 6)
	resFull := mustSave(t, u, SaveRequest{Set: set})

	// Model 2: full update; model 4: partial (last layer only).
	runCycle(t, set, st.Datasets, 1, []int{2}, []int{4})
	resDerived := mustSave(t, u, SaveRequest{Set: set, Base: resFull.SetID})

	var diff diffDoc
	if err := st.Docs.Get(updateDiffCollection, resDerived.SetID, &diff); err != nil {
		t.Fatal(err)
	}
	keys := set.Arch.ParamKeys()
	last := lastLayerOf(set.Arch)
	touched := map[int]map[string]bool{}
	for _, e := range diff.Entries {
		if touched[e.M] == nil {
			touched[e.M] = map[string]bool{}
		}
		touched[e.M][keys[e.P]] = true
	}
	if len(touched) != 2 {
		t.Fatalf("diff touches models %v, want exactly {2, 4}", touched)
	}
	if len(touched[2]) != len(keys) {
		t.Errorf("fully updated model 2 has %d changed params, want all %d", len(touched[2]), len(keys))
	}
	for key := range touched[4] {
		if key != last+".weight" && key != last+".bias" {
			t.Errorf("partially updated model 4 changed %s, want only %s.*", key, last)
		}
	}
}

func TestUpdateNoChangesDiffEmpty(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	set := mustNewSet(t, 4)
	resFull := mustSave(t, u, SaveRequest{Set: set})
	// Save again without touching any model.
	resDerived := mustSave(t, u, SaveRequest{Set: set, Base: resFull.SetID})

	var diff diffDoc
	if err := st.Docs.Get(updateDiffCollection, resDerived.SetID, &diff); err != nil {
		t.Fatal(err)
	}
	if len(diff.Entries) != 0 {
		t.Fatalf("diff has %d entries for an unchanged set", len(diff.Entries))
	}
	got := mustRecover(t, u, resDerived.SetID)
	if !set.Equal(got) {
		t.Fatal("unchanged derived set recovered incorrectly")
	}
}

func TestUpdateChainDepthGrows(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	ids, _ := saveUpdateChain(t, u, st, 3)
	for i, id := range ids {
		depth, err := u.ChainDepth(id)
		if err != nil {
			t.Fatal(err)
		}
		if depth != i {
			t.Errorf("set %s depth = %d, want %d", id, depth, i)
		}
	}
}

func TestUpdateSnapshotIntervalBoundsChain(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	u.SnapshotInterval = 2
	ids, truths := saveUpdateChain(t, u, st, 5)
	// Depths must cycle 0,1,0,1,... instead of growing.
	for i, id := range ids {
		depth, err := u.ChainDepth(id)
		if err != nil {
			t.Fatal(err)
		}
		if depth >= u.SnapshotInterval {
			t.Errorf("set %s depth = %d, exceeds snapshot interval", id, depth)
		}
		got := mustRecover(t, u, id)
		if !truths[i].Equal(got) {
			t.Errorf("set %d recovered incorrectly with snapshots", i)
		}
	}
}

func TestUpdateCompressionRoundTripAndSmaller(t *testing.T) {
	plain := NewUpdate(NewMemStores())
	compressed := NewUpdate(NewMemStores(), WithCodec("zlib"))

	// A realistic compressible update: pruning-style sparsification
	// zeroes most of a layer (common when deployed models are pruned
	// between cycles), which zlib crunches dramatically.
	run := func(u *Update) (int64, *ModelSet, string) {
		set := mustNewSetArch(t, nn.FFNN48(), 10)
		resFull := mustSave(t, u, SaveRequest{Set: set})
		w, err := set.Models[0].LayerParam("fc2.weight")
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Data {
			if i%10 != 0 {
				w.Data[i] = 0
			}
		}
		res := mustSave(t, u, SaveRequest{Set: set, Base: resFull.SetID})
		return res.BytesWritten, set.Clone(), res.SetID
	}
	plainBytes, plainTruth, plainID := run(plain)
	compBytes, compTruth, compID := run(compressed)

	if compBytes >= plainBytes {
		t.Errorf("compressed derived save (%d B) not smaller than plain (%d B)", compBytes, plainBytes)
	}
	if got := mustRecover(t, plain, plainID); !plainTruth.Equal(got) {
		t.Error("plain recovery wrong")
	}
	if got := mustRecover(t, compressed, compID); !compTruth.Equal(got) {
		t.Error("compressed recovery wrong")
	}
}

func TestUpdateCompressionSkippedWhenUnhelpful(t *testing.T) {
	// Freshly trained float parameters are near-incompressible; the
	// approach must fall back to the raw blob rather than growing it.
	st := NewMemStores()
	u := NewUpdate(st, WithCodec("zlib"))
	set := mustNewSet(t, 6)
	resFull := mustSave(t, u, SaveRequest{Set: set})
	runCycle(t, set, st.Datasets, 1, []int{0, 1}, nil)
	res := mustSave(t, u, SaveRequest{Set: set, Base: resFull.SetID})

	var diff diffDoc
	if err := st.Docs.Get(updateDiffCollection, res.SetID, &diff); err != nil {
		t.Fatal(err)
	}
	// Whether or not zlib happened to win, recovery must be exact.
	got := mustRecover(t, u, res.SetID)
	if !set.Equal(got) {
		t.Fatal("recovery wrong after compression decision")
	}
}

func TestUpdateCorruptDiffBlobDetected(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	set := mustNewSet(t, 4)
	resFull := mustSave(t, u, SaveRequest{Set: set})
	runCycle(t, set, st.Datasets, 1, []int{0}, nil)
	resDerived := mustSave(t, u, SaveRequest{Set: set, Base: resFull.SetID})

	key := updateBlobPrefix + "/" + resDerived.SetID + "/diff.bin"
	blob, err := st.Blobs.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	blob[0] ^= 0xff // flip one parameter byte
	if err := st.Blobs.Put(key, blob); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Recover(resDerived.SetID); err == nil {
		t.Fatal("corrupted diff blob recovered without error (hash check failed to fire)")
	}
}

func TestUpdateSaveWithUnknownBase(t *testing.T) {
	u := NewUpdate(NewMemStores())
	set := mustNewSet(t, 2)
	if _, err := u.Save(SaveRequest{Set: set, Base: "up-404"}); !errors.Is(err, ErrSetNotFound) {
		t.Fatal("save against unknown base accepted")
	}
}

func TestUpdateSaveBaseSizeMismatch(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	res := mustSave(t, u, SaveRequest{Set: mustNewSet(t, 4)})
	other := mustNewSet(t, 6)
	if _, err := u.Save(SaveRequest{Set: other, Base: res.SetID}); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("derived save with mismatched set size: err = %v, want ErrBaseMismatch", err)
	}
}

func TestUpdateRecoverUnknownSet(t *testing.T) {
	u := NewUpdate(NewMemStores())
	if _, err := u.Recover("up-404"); !errors.Is(err, ErrSetNotFound) {
		t.Fatal("unknown set recovered")
	}
}
