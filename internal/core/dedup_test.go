package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/scrub"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// Dedup acceptance tests: the content-addressed store behind WithDedup
// must shrink physical parameter bytes for every approach on the
// paper's U1→U3 workload while recovery stays bit-identical, prune must
// report only physically freed bytes under chunk sharing, and crash
// enumeration must hold with dedup writes exactly as it does for raw
// writes.

// factoryFleet builds a fleet whose models all start from the same
// parameters — the realistic dedup case where every model is cloned
// from one factory-trained prototype before per-cell fine-tuning.
func factoryFleet(t *testing.T, arch *nn.Architecture, n int) *ModelSet {
	t.Helper()
	proto := mustNewSetArch(t, arch, 1)
	set := proto.Clone()
	for len(set.Models) < n {
		set.Models = append(set.Models, proto.Clone().Models[0])
	}
	return set
}

// runDedupWorkload saves a 4-model factory fleet through U1, U3-1,
// U3-2, U3-3 (one model retrained per update cycle) and returns the
// commits. Training is deterministic, so a plain and a dedup run over
// fresh stores produce bit-identical parameter histories.
func runDedupWorkload(t *testing.T, st Stores, name string, dedup bool, extra ...Option) []crashCommit {
	t.Helper()
	opts := []Option{WithConcurrency(1)}
	if dedup {
		opts = append(opts, WithDedup())
	}
	opts = append(opts, extra...)
	var a Approach
	switch name {
	case "Baseline":
		a = NewBaseline(st, opts...)
	case "Update":
		a = NewUpdate(st, opts...)
	case "Provenance":
		a = NewProvenance(st, opts...)
	case "MMlibBase":
		a = NewMMlibBase(st, opts...)
	default:
		t.Fatalf("unknown approach %s", name)
	}
	set := factoryFleet(t, nn.FFNN48(), 4)
	base := ""
	var commits []crashCommit
	for cycle := 1; cycle <= 4; cycle++ { // U1, U3-1..U3-3
		req := SaveRequest{Set: set}
		if cycle > 1 {
			updates := runCycle(t, set, st.Datasets, cycle, []int{cycle % 4}, nil)
			switch name {
			case "Update":
				req.Base = base
			case "Provenance":
				req.Base = base
				req.Updates = updates
				req.Train = testTrainInfo()
			}
		}
		res := mustSave(t, a, req)
		commits = append(commits, crashCommit{res.SetID, set.Clone()})
		base = res.SetID
	}
	return commits
}

// TestDedupReducesPhysicalBytesAllApproaches is the headline
// acceptance check: same workload into a plain and a dedup store,
// identical logical bytes, strictly fewer physical bytes for every
// approach (at least 30% fewer for Baseline, which rewrites the whole
// fleet each cycle), and bit-identical recovery from both stores.
func TestDedupReducesPhysicalBytesAllApproaches(t *testing.T) {
	for _, name := range []string{"Baseline", "Update", "Provenance", "MMlibBase"} {
		t.Run(name, func(t *testing.T) {
			plainSt, _, _ := rawStores()
			dedupSt, _, _ := rawStores()
			plainCommits := runDedupWorkload(t, plainSt, name, false)
			dedupCommits := runDedupWorkload(t, dedupSt, name, true)

			duPlain, err := Du(plainSt)
			if err != nil {
				t.Fatal(err)
			}
			duDedup, err := Du(dedupSt)
			if err != nil {
				t.Fatal(err)
			}
			if duDedup.LogicalBytes != duPlain.LogicalBytes {
				t.Fatalf("logical bytes differ: dedup %d, plain %d",
					duDedup.LogicalBytes, duPlain.LogicalBytes)
			}
			if duDedup.PhysicalBytes >= duPlain.PhysicalBytes {
				t.Fatalf("dedup stored %d physical bytes, plain %d — no savings",
					duDedup.PhysicalBytes, duPlain.PhysicalBytes)
			}
			if name == "Baseline" && duDedup.PhysicalBytes > duPlain.PhysicalBytes*7/10 {
				t.Fatalf("Baseline dedup stored %d of %d physical bytes, want <=70%%",
					duDedup.PhysicalBytes, duPlain.PhysicalBytes)
			}

			// Recovery needs no WithDedup: the read path resolves
			// recipes transparently.
			da := approachByName(dedupSt, name)
			pa := approachByName(plainSt, name)
			for i, c := range dedupCommits {
				got := mustRecover(t, da, c.setID)
				if !got.Equal(c.want) {
					t.Fatalf("%s: dedup recovery of %s not bit-identical", name, c.setID)
				}
				if !got.Equal(mustRecover(t, pa, plainCommits[i].setID)) {
					t.Fatalf("%s: dedup and plain recoveries of cycle %d differ", name, i+1)
				}
			}

			report, err := Fsck(dedupSt, FsckOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !report.Clean() {
				t.Fatalf("dedup store not fsck-clean after workload:\n%v", report.Issues)
			}
		})
	}
}

// TestDedupConcurrentSaveSameSetID races saves under one explicit set
// ID: exactly one may write the set, the rest must fail with
// ErrSetExists and leave the store fsck-clean.
func TestDedupConcurrentSaveSameSetID(t *testing.T) {
	st, _, _ := rawStores()
	a := NewBaseline(st, WithDedup(), WithConcurrency(1))
	set := factoryFleet(t, nn.FFNN48(), 4)
	const writers = 8
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = a.SaveContext(context.Background(), SaveRequest{Set: set, SetID: "shared-id"})
		}(i)
	}
	wg.Wait()
	won := 0
	for _, err := range errs {
		switch {
		case err == nil:
			won++
		case !errors.Is(err, ErrSetExists):
			t.Fatalf("losing save: err = %v, want ErrSetExists", err)
		}
	}
	if won != 1 {
		t.Fatalf("%d of %d concurrent saves of one set ID succeeded, want 1", won, writers)
	}
	report, err := Fsck(st, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("store not fsck-clean after racing saves:\n%v", report.Issues)
	}
	if !mustRecover(t, a, "shared-id").Equal(set) {
		t.Fatal("racing saves: shared-id not bit-identical")
	}
}

// TestDedupPruneFreedBytesUnderSharing is the FreedBytes regression
// test: two saves of identical content share every chunk, so pruning
// one must free only its recipes and documents — never the shared
// chunk bytes — and pruning the last reference must free them all.
func TestDedupPruneFreedBytesUnderSharing(t *testing.T) {
	st, _, _ := rawStores()
	a := NewBaseline(st, WithConcurrency(1), WithDedup())
	set := mustNewSetArch(t, nn.FFNN48(), 4)

	res1 := mustSave(t, a, SaveRequest{Set: set})
	res2 := mustSave(t, a, SaveRequest{Set: set})
	if res2.BytesWritten >= res1.BytesWritten/2 {
		t.Fatalf("second identical save wrote %d physical bytes, first wrote %d — chunks not skipped",
			res2.BytesWritten, res1.BytesWritten)
	}

	before, err := Du(st)
	if err != nil {
		t.Fatal(err)
	}
	if before.Chunks == 0 || before.ChunkBytes == 0 {
		t.Fatal("dedup saves produced no chunks")
	}

	// Prune the first set: every chunk is still referenced by the
	// survivor, so FreedBytes must stay far below the chunk bytes.
	rep1, err := a.Prune([]string{res2.SetID})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.FreedBytes >= before.ChunkBytes/2 {
		t.Fatalf("pruning a sharing set reported %d bytes freed; chunk bytes are %d and all chunks survive",
			rep1.FreedBytes, before.ChunkBytes)
	}
	mid, err := Du(st)
	if err != nil {
		t.Fatal(err)
	}
	if mid.ChunkBytes != before.ChunkBytes {
		t.Fatalf("pruning a sharing set changed chunk bytes from %d to %d",
			before.ChunkBytes, mid.ChunkBytes)
	}
	if !mustRecover(t, a, res2.SetID).Equal(set) {
		t.Fatalf("survivor %s damaged by prune", res2.SetID)
	}

	// Prune the survivor too: now the chunks physically die and the
	// report must say so.
	rep2, err := a.Prune(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.FreedBytes < before.ChunkBytes {
		t.Fatalf("pruning the last reference reported %d bytes freed, want >= %d chunk bytes",
			rep2.FreedBytes, before.ChunkBytes)
	}
	after, err := Du(st)
	if err != nil {
		t.Fatal(err)
	}
	if after.Chunks != 0 || after.ChunkBytes != 0 {
		t.Fatalf("store still holds %d chunks (%d bytes) after full prune",
			after.Chunks, after.ChunkBytes)
	}

	// Eager release already deleted the zero-ref chunks; GC confirms
	// there is nothing left and fsck agrees.
	gc, err := GCStore(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gc.ChunksDeleted != 0 {
		t.Fatalf("GC after prune deleted %d chunks; release should have been eager", gc.ChunksDeleted)
	}
	report, err := Fsck(st, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("store not clean after save→prune→GC:\n%v", report.Issues)
	}
}

// TestDedupFsckRepairsPlantedCASDebris plants each kind of CAS debris
// directly and checks fsck classifies all of it as repairable, repairs
// it in one pass, and leaves committed data untouched.
func TestDedupFsckRepairsPlantedCASDebris(t *testing.T) {
	st, _, _ := rawStores()
	a := NewBaseline(st, WithDedup())
	set := mustNewSet(t, 2)
	id := mustSave(t, a, SaveRequest{Set: set}).SetID

	// An orphan chunk.
	orphan := []byte("orphan chunk payload")
	sum := sha256.Sum256(orphan)
	orphanHash := hex.EncodeToString(sum[:])
	if err := st.Blobs.Put(cas.ChunkKey(orphanHash), orphan); err != nil {
		t.Fatal(err)
	}
	// An unreadable recipe for a set that does not exist.
	if err := st.Blobs.Put(cas.RecipeKey("baseline/bl-999999/params.bin"), []byte("{torn")); err != nil {
		t.Fatal(err)
	}

	report, err := Fsck(st, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Damaged() {
		t.Fatalf("planted debris reported as damage:\n%v", report.Issues)
	}
	kinds := map[string]bool{}
	for _, i := range report.Issues {
		kinds[i.Kind] = true
	}
	for _, want := range []string{FsckCASChunk, FsckCASRecipe} {
		if !kinds[want] {
			t.Errorf("no %s issue reported; got %v", want, report.Issues)
		}
	}

	if _, err := Fsck(st, FsckOptions{Repair: true}); err != nil {
		t.Fatal(err)
	}
	after, err := Fsck(st, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Clean() {
		t.Fatalf("store not clean after repair:\n%v", after.Issues)
	}

	rescan, err := cas.ScanStore(st.Blobs)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rescan.Chunks[orphanHash]; ok {
		t.Error("orphan chunk survived repair")
	}
	if !mustRecover(t, a, id).Equal(set) {
		t.Fatalf("committed set %s damaged by repair", id)
	}
}

// TestDedupLegacyRefKeysIgnored opens a store written before chunk
// liveness was derived — one that still holds a persisted refcount per
// chunk under cas/refs/, plus one for a chunk that is gone — and runs
// the whole chunk lifecycle over it. Nothing may read, count, report or
// delete those keys; one whose bytes no longer match their checksum is
// debris, never damage.
func TestDedupLegacyRefKeysIgnored(t *testing.T) {
	st, blobBE, _ := rawStores()
	a := NewBaseline(st, WithConcurrency(1), WithDedup())
	set := factoryFleet(t, nn.FFNN48(), 4)
	base := mustSave(t, a, SaveRequest{Set: set}).SetID

	scan, err := cas.ScanStore(st.Blobs)
	if err != nil {
		t.Fatal(err)
	}
	gone := sha256.Sum256([]byte("a chunk this store never held"))
	hashes := []string{hex.EncodeToString(gone[:])}
	for h := range scan.Chunks {
		hashes = append(hashes, h)
	}
	planted := map[string][]byte{}
	for i, h := range hashes {
		key := "cas/refs/" + h[:2] + "/" + h
		planted[key] = []byte(fmt.Sprint(i % 3))
		if err := st.Blobs.Put(key, planted[key]); err != nil {
			t.Fatal(err)
		}
	}

	set.Models[1].Params()[0].Tensor.Data[0] += 0.5
	derived := mustSave(t, a, SaveRequest{Set: set}).SetID
	if _, err := a.Prune([]string{derived}); err != nil {
		t.Fatal(err)
	}
	if _, err := GCStore(st, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Recover(base); !errors.Is(err, ErrSetNotFound) {
		t.Fatalf("pruned base %s: err = %v, want ErrSetNotFound", base, err)
	}
	if !mustRecover(t, a, derived).Equal(set) {
		t.Fatalf("derived set %s not bit-exact over a legacy store", derived)
	}
	report, err := Fsck(st, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("legacy store not fsck-clean:\n%v", report.Issues)
	}
	pass, err := scrub.New(st.Blobs, st.Docs, scrub.Config{}).RunPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(pass.Findings) != 0 {
		t.Fatalf("scrub reported legacy keys: %v", pass.Findings)
	}
	for key, want := range planted {
		if got, err := st.Blobs.Get(key); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("legacy key %s touched: %q, %v", key, got, err)
		}
	}

	// A legacy key whose bytes rotted under their manifest is debris.
	var rotted string
	for key := range planted {
		rotted = key
		break
	}
	if err := blobBE.Put(rotted, []byte("garbled")); err != nil {
		t.Fatal(err)
	}
	report, err = Fsck(st, FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if report.Damaged() || report.Clean() {
		t.Fatalf("rotted legacy key: want repairable debris, got:\n%v", report.Issues)
	}
	if _, err := Fsck(st, FsckOptions{Repair: true}); err != nil {
		t.Fatal(err)
	}
	if after, err := Fsck(st, FsckOptions{}); err != nil || !after.Clean() {
		t.Fatalf("store not clean after repairing a rotted legacy key: %v\n%v", err, after.Issues)
	}
}

// TestDedupExportImport checks archives built from a dedup store carry
// reassembled logical bytes: importing into a store that never saw the
// chunk store recovers the chain bit-identically.
func TestDedupExportImport(t *testing.T) {
	src, _, _ := rawStores()
	a := NewUpdate(src, WithConcurrency(1), WithDedup())
	set := mustNewSet(t, 3)
	base := mustSave(t, a, SaveRequest{Set: set}).SetID
	runCycle(t, set, src.Datasets, 2, []int{0}, []int{2})
	id := mustSave(t, a, SaveRequest{Set: set, Base: base}).SetID
	want := set.Clone()

	var buf bytes.Buffer
	if err := a.Export(id, &buf); err != nil {
		t.Fatal(err)
	}

	dst, _, _ := rawStores()
	if err := ImportArchive(dst, &buf); err != nil {
		t.Fatal(err)
	}
	got := mustRecover(t, NewUpdate(dst), id)
	if !got.Equal(want) {
		t.Fatalf("chain recovered from imported archive differs from source")
	}
}

func TestCrashEnumerationDedupBaseline(t *testing.T) {
	runCrashEnumeration(t, "Baseline", func(t *testing.T, st Stores) []crashCommit {
		a := NewBaseline(st, WithConcurrency(1), WithDedup())
		set := mustNewSet(t, 3)
		// Two identical models so chunk sharing is exercised inside the
		// crash sweep, not just distinct-chunk writes.
		set.Models[1] = set.Clone().Models[0]
		var commits []crashCommit
		for cycle := 1; cycle <= 2; cycle++ {
			if cycle > 1 {
				runCycle(t, set, st.Datasets, cycle, []int{1}, []int{2})
			}
			id := mustSave(t, a, SaveRequest{Set: set}).SetID
			commits = append(commits, crashCommit{id, set.Clone()})
		}
		return commits
	})
}

func TestCrashEnumerationDedupUpdate(t *testing.T) {
	runCrashEnumeration(t, "Update", func(t *testing.T, st Stores) []crashCommit {
		a := NewUpdate(st, WithConcurrency(1), WithDedup())
		set := mustNewSet(t, 3)
		var commits []crashCommit
		base := ""
		for cycle := 1; cycle <= 3; cycle++ { // U1, U3-1, U3-2
			if cycle > 1 {
				runCycle(t, set, st.Datasets, cycle, []int{cycle % 3}, nil)
			}
			id := mustSave(t, a, SaveRequest{Set: set, Base: base}).SetID
			commits = append(commits, crashCommit{id, set.Clone()})
			base = id
		}
		return commits
	})
}

// TestCrashEnumerationDedupPruneAndGC sweeps crash points through the
// full chunk lifecycle: two sharing saves, a prune that releases one
// (recipe deletion, then the chunks no other recipe lists), and a GC
// deleting an unlisted chunk. Every prefix must stay repairable and the
// surviving set recoverable.
func TestCrashEnumerationDedupPruneAndGC(t *testing.T) {
	runCrashEnumeration(t, "Baseline", func(t *testing.T, st Stores) []crashCommit {
		a := NewBaseline(st, WithConcurrency(1), WithDedup())
		set := mustNewSet(t, 2)
		idA := mustSave(t, a, SaveRequest{Set: set}).SetID
		idB := mustSave(t, a, SaveRequest{Set: set}).SetID
		if _, err := a.Prune([]string{idB}); err != nil {
			t.Fatal(err)
		}
		// Plant an unlisted chunk so GC has real deletions to crash in
		// (eager release leaves none behind on the happy path).
		fodder := []byte("unreferenced chunk for gc")
		sum := sha256.Sum256(fodder)
		h := hex.EncodeToString(sum[:])
		if err := st.Blobs.Put(cas.ChunkKey(h), fodder); err != nil {
			t.Fatal(err)
		}
		rep, err := GCStore(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ChunksDeleted != 1 {
			t.Fatalf("GC deleted %d chunks, want 1", rep.ChunksDeleted)
		}
		// idA was pruned: checkCommits accepts recoverable-or-absent,
		// which covers both its pre- and post-prune prefixes.
		return []crashCommit{{idA, set.Clone()}, {idB, set.Clone()}}
	})
}
