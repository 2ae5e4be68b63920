package core

import (
	"bytes"
	"compress/zlib"
	"errors"
	"strings"
	"testing"

	"github.com/mmm-go/mmm/internal/nn"
)

// Regression tests for the recovery-path hardening: metadata cycles,
// truncated hash documents, oversized compressed diff blobs, and
// derived saves against an incompatible base. Each corruption is the
// kind fsck or a hostile store could present; recovery must fail with
// a typed error, never crash or return wrong parameters.

// plantUpdateCycle saves full A and derived B, then rewrites A's
// metadata to be derived from B — a two-set metadata cycle that no
// crash-consistent writer produces but a corrupted store can.
func plantUpdateCycle(t *testing.T, u *Update, st Stores) (idA, idB string) {
	t.Helper()
	set := mustNewSet(t, 4)
	resA := mustSave(t, u, SaveRequest{Set: set})
	runCycle(t, set, st.Datasets, 1, []int{0}, nil)
	resB := mustSave(t, u, SaveRequest{Set: set, Base: resA.SetID})

	var meta setMeta
	if err := st.Docs.Get(updateCollection, resA.SetID, &meta); err != nil {
		t.Fatal(err)
	}
	meta.Kind = "derived"
	meta.Base = resB.SetID
	if err := st.Docs.Insert(updateCollection, resA.SetID, meta); err != nil {
		t.Fatal(err)
	}
	return resA.SetID, resB.SetID
}

func TestUpdateBaseChainCycleDetected(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	_, idB := plantUpdateCycle(t, u, st)

	// Full recovery must fail with the corruption sentinel instead of
	// recursing forever.
	if _, err := u.Recover(idB); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("recover over cyclic chain: err = %v, want ErrCorruptBlob", err)
	}
	// Selective recovery walks the same chain.
	if _, err := u.RecoverModels(idB, []int{0}); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("partial recover over cyclic chain: err = %v, want ErrCorruptBlob", err)
	}
	// VerifyStore flags every set trapped in the cycle.
	issues, err := u.VerifyStore()
	if err != nil {
		t.Fatal(err)
	}
	cycleIssues := 0
	for _, i := range issues {
		if strings.Contains(i.Problem, "cycle") {
			cycleIssues++
		}
	}
	if cycleIssues == 0 {
		t.Fatalf("VerifyStore over cyclic chain reported no cycle: %v", issues)
	}
}

func TestFsckReportsBaseChainCycle(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	plantUpdateCycle(t, u, st)

	report, err := Fsck(st, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, i := range report.Issues {
		if strings.Contains(i.Problem, "cycle") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fsck missed the metadata cycle: %+v", report.Issues)
	}
}

func TestProvenanceBaseChainCycleDetected(t *testing.T) {
	st := NewMemStores()
	p := NewProvenance(st)
	set := mustNewSet(t, 4)
	resA := mustSave(t, p, SaveRequest{Set: set})
	updates := runCycle(t, set, st.Datasets, 1, []int{0}, nil)
	resB := mustSave(t, p, SaveRequest{
		Set: set, Base: resA.SetID, Updates: updates, Train: testTrainInfo(),
	})

	var meta setMeta
	if err := st.Docs.Get(provenanceCollection, resA.SetID, &meta); err != nil {
		t.Fatal(err)
	}
	meta.Kind = "derived"
	meta.Base = resB.SetID
	if err := st.Docs.Insert(provenanceCollection, resA.SetID, meta); err != nil {
		t.Fatal(err)
	}

	if _, err := p.Recover(resB.SetID); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("provenance recover over cyclic chain: err = %v, want ErrCorruptBlob", err)
	}
	if _, err := p.RecoverModels(resB.SetID, []int{0}); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("provenance partial recover over cyclic chain: err = %v, want ErrCorruptBlob", err)
	}
	issues, err := p.VerifyStore()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, i := range issues {
		if strings.Contains(i.Problem, "cycle") {
			found = true
		}
	}
	if !found {
		t.Fatalf("provenance VerifyStore missed the cycle: %v", issues)
	}
}

// saveUpdateDerived saves a full base plus one derived set and returns
// the derived set's ID with the stores for tampering.
func saveUpdateDerived(t *testing.T, u *Update, st Stores) string {
	t.Helper()
	set := mustNewSet(t, 4)
	resFull := mustSave(t, u, SaveRequest{Set: set})
	runCycle(t, set, st.Datasets, 1, []int{0}, []int{2})
	res := mustSave(t, u, SaveRequest{Set: set, Base: resFull.SetID})
	return res.SetID
}

// TestUpdateTruncatedHashDocDetected: a legacy hash document that no
// longer covers the set must fail recovery, not disable the integrity
// check (hashtable_test.go holds the same for the table).
func TestUpdateTruncatedHashDocDetected(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	id := saveUpdateDerived(t, u, st)
	toLegacyHashDocs(t, u, id)

	// Truncate the hash document so the diff's entries point past it.
	if err := st.Docs.Insert(updateHashCollection, id, hashDoc{Models: [][]string{}}); err != nil {
		t.Fatal(err)
	}

	if _, err := u.Recover(id); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("recover with truncated hash doc: err = %v, want ErrCorruptBlob", err)
	}
	if _, err := u.RecoverModels(id, []int{0}); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("partial recover with truncated hash doc: err = %v, want ErrCorruptBlob", err)
	}
}

// plantCompressedDiff returns a derived set whose diff blob is
// zlib-compressed, plus the exact decompressed size the diff list
// implies.
func plantCompressedDiff(t *testing.T, u *Update, st Stores) (id string, want int) {
	t.Helper()
	set := mustNewSetArch(t, nn.FFNN48(), 4)
	resFull := mustSave(t, u, SaveRequest{Set: set})
	// Sparsify a layer so zlib wins decisively and Compressed is set.
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

	var diff diffDoc
	if err := st.Docs.Get(updateDiffCollection, res.SetID, &diff); err != nil {
		t.Fatal(err)
	}
	if diffCodecID(diff) == "" {
		t.Fatal("sparsified diff was not compressed; test needs a compressed blob")
	}
	sizes := paramByteSizes(set.Arch)
	for _, e := range diff.Entries {
		want += sizes[e.P]
	}
	return res.SetID, want
}

func TestUpdateOversizedCompressedDiffDetected(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st, WithCodec("zlib"))
	id, want := plantCompressedDiff(t, u, st)

	// A decompression bomb: a small valid zlib stream that inflates to
	// more than the diff list implies. The bounded reader must stop at
	// want+1 bytes and reject, not buffer the whole expansion.
	var bomb bytes.Buffer
	zw := zlib.NewWriter(&bomb)
	if _, err := zw.Write(make([]byte, want+1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	key := updateBlobPrefix + "/" + id + "/diff.bin"
	if err := st.Blobs.Put(key, bomb.Bytes()); err != nil {
		t.Fatal(err)
	}

	if _, err := u.Recover(id); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("recover of oversized compressed diff: err = %v, want ErrCorruptBlob", err)
	}
	if _, err := u.RecoverModels(id, []int{0}); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("partial recover of oversized compressed diff: err = %v, want ErrCorruptBlob", err)
	}
}

func TestUpdateUndersizedCompressedDiffDetected(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st, WithCodec("zlib"))
	id, want := plantCompressedDiff(t, u, st)
	if want < 2 {
		t.Fatalf("diff too small to truncate (%d bytes)", want)
	}

	var short bytes.Buffer
	zw := zlib.NewWriter(&short)
	if _, err := zw.Write(make([]byte, want/2)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	key := updateBlobPrefix + "/" + id + "/diff.bin"
	if err := st.Blobs.Put(key, short.Bytes()); err != nil {
		t.Fatal(err)
	}

	if _, err := u.Recover(id); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("recover of undersized compressed diff: err = %v, want ErrCorruptBlob", err)
	}
}

func TestUpdateSaveBaseArchMismatch(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	res := mustSave(t, u, SaveRequest{Set: mustNewSet(t, 4)})

	// Different parameter count.
	wider := mustNewSetArch(t, nn.FFNN("test-ffnn", 4, []int{9}, 1), 4)
	if _, err := u.Save(SaveRequest{Set: wider, Base: res.SetID}); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("derived save with different param count: err = %v, want ErrBaseMismatch", err)
	}
	// Same shape under a different architecture name.
	renamed := mustNewSetArch(t, nn.FFNN("other-ffnn", 4, []int{8}, 1), 4)
	if _, err := u.Save(SaveRequest{Set: renamed, Base: res.SetID}); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("derived save with renamed arch: err = %v, want ErrBaseMismatch", err)
	}
}

func TestProvenanceSaveBaseArchMismatch(t *testing.T) {
	st := NewMemStores()
	p := NewProvenance(st)
	res := mustSave(t, p, SaveRequest{Set: mustNewSet(t, 4)})

	wider := mustNewSetArch(t, nn.FFNN("test-ffnn", 4, []int{9}, 1), 4)
	_, err := p.Save(SaveRequest{
		Set: wider, Base: res.SetID, Train: testTrainInfo(),
	})
	if !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("provenance derived save with different param count: err = %v, want ErrBaseMismatch", err)
	}
}
