package core

import (
	"errors"
	"testing"
)

// saveDedupBaseline saves a small dedup fleet and returns the approach,
// stores, truth set, set ID, and the chunk index's blob key.
func saveDedupBaseline(t *testing.T, n int) (*Baseline, Stores, *ModelSet, string, string) {
	t.Helper()
	st := NewMemStores()
	b := NewBaseline(st, WithDedup())
	set := mustNewSet(t, n)
	res := mustSave(t, b, SaveRequest{Set: set})
	return b, st, set, res.SetID, baselineLayout.blobKey(res.SetID, chunkIndexFile)
}

func TestChunkIndexWrittenOnlyForDedupSaves(t *testing.T) {
	_, st, _, _, idxKey := saveDedupBaseline(t, 3)
	if _, err := st.Blobs.Size(idxKey); err != nil {
		t.Fatalf("dedup save left no chunk index at %s: %v", idxKey, err)
	}

	stPlain := NewMemStores()
	bPlain := NewBaseline(stPlain)
	res := mustSave(t, bPlain, SaveRequest{Set: mustNewSet(t, 3)})
	if _, err := stPlain.Blobs.Size(baselineLayout.blobKey(res.SetID, chunkIndexFile)); err == nil {
		t.Fatal("plain save wrote a chunk index; only dedup saves have a recipe to index")
	}
}

func TestChunkIndexMissingFallsBackToRangedReads(t *testing.T) {
	// Pre-index stores have no params.idx; selective recovery must fall
	// back to ranged recipe reads and return the same bytes.
	b, st, set, setID, idxKey := saveDedupBaseline(t, 5)
	if err := st.Blobs.Delete(idxKey); err != nil {
		t.Fatal(err)
	}
	checkPartial(t, b, setID, set, []int{0, 3})
}

func TestChunkIndexCorruptSurfacesErrCorruptBlob(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"garbage", func([]byte) []byte { return []byte("not an index at all") }},
		{"bad magic", func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[0] ^= 0xFF
			return out
		}},
		{"truncated", func(raw []byte) []byte {
			return append([]byte(nil), raw[:len(raw)-3]...)
		}},
		{"trailing byte", func(raw []byte) []byte {
			return append(append([]byte(nil), raw...), 0x00)
		}},
		{"empty", func([]byte) []byte { return []byte{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, st, _, setID, idxKey := saveDedupBaseline(t, 4)
			raw, err := st.Blobs.Get(idxKey)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Blobs.Put(idxKey, tc.corrupt(raw)); err != nil {
				t.Fatal(err)
			}
			_, err = b.RecoverModels(setID, []int{1})
			if !errors.Is(err, ErrCorruptBlob) {
				t.Fatalf("corrupt chunk index: got %v, want ErrCorruptBlob", err)
			}
		})
	}
}

func TestChunkIndexSurvivesFsck(t *testing.T) {
	// The index is part of a committed set: a read-only Fsck pass must
	// not classify it as an orphan, and a repair pass must not delete it.
	_, st, _, _, idxKey := saveDedupBaseline(t, 3)
	rep, err := Fsck(st, FsckOptions{Repair: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, issue := range rep.Issues {
		t.Errorf("fsck issue on a freshly saved store: %+v", issue)
	}
	if _, err := st.Blobs.Size(idxKey); err != nil {
		t.Fatalf("fsck repair removed the chunk index: %v", err)
	}
}
