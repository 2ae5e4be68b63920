package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/hashing"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/docstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

// hashDoc is the hash document as binaries from before the hash table
// wrote it.
type hashDoc struct {
	Models [][]string `json:"models"`
}

// toLegacyHashDocs rewrites the given Update sets into the form stores
// had before the hash table: the hex hash document in update_hashes, no
// hashes.bin, no hash_table mark in the metadata.
func toLegacyHashDocs(t *testing.T, u *Update, ids ...string) {
	t.Helper()
	for _, id := range ids {
		meta, err := loadMeta(u.stores, u.layout, id)
		if err != nil {
			t.Fatal(err)
		}
		if !meta.HashTable {
			t.Fatalf("%s is not in table form", id)
		}
		key := u.layout.blobKey(id, hashFile)
		raw, err := u.getBlob(key)
		if err != nil {
			t.Fatal(err)
		}
		n, p, err := decodeHashHeader(id, raw, int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		table := hashTable{n: n, p: p, raw: raw}
		doc := hashDoc{Models: make([][]string, n)}
		for m := range doc.Models {
			doc.Models[m] = make([]string, p)
			for i := range doc.Models[m] {
				doc.Models[m][i] = hex.EncodeToString(table.at(m, i))
			}
		}
		if err := u.stores.Docs.Insert(updateHashCollection, id, doc); err != nil {
			t.Fatal(err)
		}
		if _, err := u.blobs.Delete(key); err != nil {
			t.Fatal(err)
		}
		meta.HashTable = false
		if err := u.stores.Docs.Insert(updateCollection, id, meta); err != nil {
			t.Fatal(err)
		}
	}
}

// goldenChain saves the seeded U1→U3-1→U3-2 chain TestGoldenLayout
// pins and returns the set IDs with the state saved under each.
func goldenChain(t *testing.T, a Approach, st Stores) (ids []string, truths []*ModelSet) {
	t.Helper()
	set := mustNewSet(t, 4)
	base := ""
	for cycle, sel := range [][2][]int{{nil, nil}, {{0}, {2}}, {{1}, {3}}} {
		req := SaveRequest{Set: set, Base: base}
		if cycle > 0 {
			req.Updates = runCycle(t, set, st.Datasets, cycle, sel[0], sel[1])
			req.Train = testTrainInfo()
		}
		base = mustSave(t, a, req).SetID
		ids = append(ids, base)
		truths = append(truths, set.Clone())
	}
	return ids, truths
}

// TestLegacyHashDocReadable: stores written before the hash table keep
// working through every operation, and a new set derived from a legacy
// base is written in table form on top of it.
func TestLegacyHashDocReadable(t *testing.T) {
	// What the parent commit's golden fixture records for the chain's
	// hash and metadata documents: the rewrite must reproduce the old
	// form byte for byte, or this test would prove nothing about it.
	oldDocs := map[string]string{
		"update_hashes/up-000001.json": "f697ccde170c492a643e62ccb478e4966f1d9d5515be2c7a85a0dc099052fe1a",
		"update_hashes/up-000002.json": "9e12c4eff45e32c8aa33d4db22d200315dbc7f0d156644e2418b21aab1e32b87",
		"update_hashes/up-000003.json": "1cb94274d0a83ca6912f8fd58b4c806235d85a32f17a779e04fad2d782cd3ccd",
		"update_sets/up-000001.json":   "c85655c01d06f39ed21757d85068c2c46ee52b12f3a46002cf31349feb8173e1",
		"update_sets/up-000002.json":   "789e8cd88cb490a655cda10dd4924f3dd9a1b019db382ad13c525892550fa6b8",
		"update_sets/up-000003.json":   "ff46ee83487fbe488a266c30e241e76634681e5bc938bbed9ec39cf58fa398e1",
	}
	for _, v := range []struct {
		name string
		opts []Option
	}{{"plain", nil}, {"dedup", []Option{WithDedup()}}} {
		t.Run(v.name, func(t *testing.T) {
			st, blobBE, docBE := rawStores()
			u := NewUpdate(st, v.opts...)
			ids, truths := goldenChain(t, u, st)
			toLegacyHashDocs(t, u, ids...)

			for key, want := range oldDocs {
				data, err := docBE.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
					t.Errorf("%s is not in the pre-change form: SHA-256 %s, parent golden has %s", key, got, want)
				}
			}
			keys, err := blobBE.Keys()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range keys {
				if strings.HasSuffix(k, hashFile) {
					t.Fatalf("legacy store still holds %s", k)
				}
			}

			checkStore := func(st Stores, what string) {
				t.Helper()
				issues, err := NewUpdate(st).VerifyStore()
				if err != nil {
					t.Fatal(err)
				}
				if len(issues) != 0 {
					t.Fatalf("%s: VerifyStore: %v", what, issues)
				}
				if report := mustFsck(t, st, FsckOptions{}); !report.Clean() {
					t.Fatalf("%s: fsck:\n%v", what, report.Issues)
				}
			}
			checkStore(st, "legacy store")

			for i, id := range ids {
				if got := mustRecover(t, u, id); !got.Equal(truths[i]) {
					t.Fatalf("legacy %s recovered incorrectly", id)
				}
			}
			rec, err := u.RecoverModels(ids[2], []int{0, 1, 3})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{0, 1, 3} {
				if !rec.Models[m].ParamsEqual(truths[2].Models[m]) {
					t.Fatalf("legacy selective recover of model %d differs", m)
				}
			}

			// A new derived save diffs against the legacy document and is
			// itself written as a table: a mixed chain.
			set := truths[2].Clone()
			ups := runCycle(t, set, st.Datasets, 3, []int{2}, []int{0})
			mixed := mustSave(t, u, SaveRequest{Set: set, Base: ids[2], Updates: ups}).SetID
			meta, err := loadMeta(st, u.layout, mixed)
			if err != nil {
				t.Fatal(err)
			}
			if !meta.HashTable {
				t.Fatal("a save on a legacy base was not written in table form")
			}
			if ok, _ := st.Docs.Exists(updateHashCollection, mixed); ok {
				t.Fatal("a save on a legacy base wrote a hash document")
			}
			var diff diffDoc
			if err := st.Docs.Get(updateDiffCollection, mixed, &diff); err != nil {
				t.Fatal(err)
			}
			// Model 2 retrained fully (4 tensors), model 0 its last layer (2).
			if len(diff.Entries) != 6 {
				t.Fatalf("diff against a legacy base has %d entries, want 6: %v", len(diff.Entries), diff.Entries)
			}
			if got := mustRecover(t, u, mixed); !got.Equal(set) {
				t.Fatal("mixed chain recovered incorrectly")
			}
			rec, err = u.RecoverModels(mixed, []int{0, 2})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Models[0].ParamsEqual(set.Models[0]) || !rec.Models[2].ParamsEqual(set.Models[2]) {
				t.Fatal("mixed chain selective recover differs")
			}
			checkStore(st, "mixed store")

			if _, err := u.PullSource(ids[0]); err != nil {
				t.Fatalf("PullSource of a legacy full snapshot: %v", err)
			}

			// Export carries the legacy documents; the imported chain works.
			var archive bytes.Buffer
			if err := u.Export(mixed, &archive); err != nil {
				t.Fatal(err)
			}
			dst := NewMemStores()
			if err := ImportArchive(dst, &archive); err != nil {
				t.Fatal(err)
			}
			if got := mustRecover(t, NewUpdate(dst), mixed); !got.Equal(set) {
				t.Fatal("imported mixed chain recovered incorrectly")
			}
			checkStore(dst, "imported store")

			// Prune keeps the chain of what is kept, and deleting legacy
			// sets takes their hash documents along.
			if report, err := u.Prune([]string{mixed}); err != nil || len(report.Deleted) != 0 {
				t.Fatalf("prune keeping the tip: deleted %v, err %v", report, err)
			}
			report, err := u.Prune([]string{ids[1]})
			if err != nil {
				t.Fatal(err)
			}
			if len(report.Deleted) != 2 || len(report.Kept) != 2 {
				t.Fatalf("prune to U3-1: kept %v, deleted %v", report.Kept, report.Deleted)
			}
			if ok, _ := st.Docs.Exists(updateHashCollection, ids[2]); ok {
				t.Fatal("prune left the hash document of a deleted legacy set")
			}
			if got := mustRecover(t, u, ids[1]); !got.Equal(truths[1]) {
				t.Fatal("kept legacy chain recovered incorrectly")
			}
			checkStore(st, "pruned store")
		})
	}
}

// TestHashTableDamageDetected: whatever happens to hashes.bin, recovery
// fails typed — never with parameters the table could not vouch for.
func TestHashTableDamageDetected(t *testing.T) {
	// The derived set retrains model 0 fully and model 2's last layer.
	const flippedModel, intactModel = 0, 2
	cases := []struct {
		name   string
		damage func(raw []byte) []byte // nil deletes the blob
		// notFound: the failure is the typed not-found, not corruption.
		notFound bool
		// perModel: only flippedModel is affected.
		perModel bool
	}{
		{name: "truncated", damage: func(raw []byte) []byte { return raw[:len(raw)/2] }},
		{name: "truncated inside header", damage: func(raw []byte) []byte { return raw[:7] }},
		{name: "empty", damage: func(raw []byte) []byte { return raw[:0] }},
		{name: "header n wrong", damage: func(raw []byte) []byte { raw[8]++; return raw }},
		{name: "header P wrong", damage: func(raw []byte) []byte { raw[12]--; return raw }},
		{name: "bad magic", damage: func(raw []byte) []byte { raw[0] ^= 0xff; return raw }},
		{name: "future version", damage: func(raw []byte) []byte { raw[4]++; return raw }},
		{name: "one digest byte flipped", perModel: true, damage: func(raw []byte) []byte {
			raw[hashRowOffset(flippedModel, 4)+5] ^= 0x01
			return raw
		}},
		{name: "blob missing", notFound: true, damage: func([]byte) []byte { return nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewMemStores()
			u := NewUpdate(st)
			id := saveUpdateDerived(t, u, st)
			truth := mustRecover(t, u, id)

			key := u.layout.blobKey(id, hashFile)
			raw, err := st.Blobs.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			if damaged := tc.damage(raw); damaged == nil {
				mustDeleteBlob(t, st, key)
			} else if err := st.Blobs.Put(key, damaged); err != nil {
				t.Fatal(err)
			}

			typed := func(err error) bool {
				if tc.notFound {
					return backend.IsNotFound(err)
				}
				return errors.Is(err, ErrCorruptBlob)
			}
			if _, err := u.Recover(id); !typed(err) {
				t.Fatalf("full recover: err = %v", err)
			}
			if _, err := u.RecoverModels(id, []int{flippedModel, intactModel}); !typed(err) {
				t.Fatalf("selective recover: err = %v", err)
			}

			// Models this level did not change need no hash info.
			rec, err := u.RecoverModels(id, []int{1, 3})
			if err != nil {
				t.Fatalf("selective recover of unchanged models: %v", err)
			}
			if !rec.Models[1].ParamsEqual(truth.Models[1]) || !rec.Models[3].ParamsEqual(truth.Models[3]) {
				t.Fatal("unchanged models recovered incorrectly")
			}

			var report RecoveryReport
			rec, err = u.RecoverModelsContext(context.Background(), id, []int{flippedModel, 1, intactModel}, WithPartialResults(&report))
			if !tc.perModel {
				// Damage to the table as a whole is not a per-model failure.
				if !typed(err) {
					t.Fatalf("degraded recover: err = %v", err)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				if len(report.Failures) != 1 || report.Failures[0].ModelIndex != flippedModel {
					t.Fatalf("degraded recover dropped %+v, want only model %d", report.Failures, flippedModel)
				}
				for _, m := range []int{1, intactModel} {
					if !rec.Models[m].ParamsEqual(truth.Models[m]) {
						t.Fatalf("degraded recover returned wrong parameters for model %d", m)
					}
				}
			}

			issues, err := u.VerifyStore()
			if err != nil {
				t.Fatal(err)
			}
			// A flipped digest keeps the table's shape; the blob store's
			// checksums (Fsck) and recovery itself are what catch it.
			if !tc.perModel && len(issues) == 0 {
				t.Fatal("VerifyStore saw nothing wrong")
			}
		})
	}
}

// TestDerivedSaveRejectsMisshapenBaseHashes: checkBase has pinned the
// architecture and model count, so base hash info of another shape is a
// damaged store. It used to diff as "every layer changed" and quietly
// produce a full-size diff.
func TestDerivedSaveRejectsMisshapenBaseHashes(t *testing.T) {
	cases := []struct {
		name   string
		legacy bool
		damage func(t *testing.T, u *Update, base string)
	}{
		{name: "table with another P", damage: func(t *testing.T, u *Update, base string) {
			putHashTable(t, u, base, newHashTable(4, 3))
		}},
		{name: "table with another n", damage: func(t *testing.T, u *Update, base string) {
			putHashTable(t, u, base, newHashTable(5, 4))
		}},
		{name: "document with another P", legacy: true, damage: func(t *testing.T, u *Update, base string) {
			putHashDoc(t, u, base, func(d *hashDoc) { d.Models[1] = d.Models[1][:3] })
		}},
		{name: "document with another n", legacy: true, damage: func(t *testing.T, u *Update, base string) {
			putHashDoc(t, u, base, func(d *hashDoc) { d.Models = d.Models[:3] })
		}},
		{name: "document with a garbled hash", legacy: true, damage: func(t *testing.T, u *Update, base string) {
			putHashDoc(t, u, base, func(d *hashDoc) { d.Models[2][0] = strings.Repeat("zz", hashing.Size) })
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, blobBE, docBE := rawStores()
			u := NewUpdate(st)
			set := mustNewSet(t, 4)
			base := mustSave(t, u, SaveRequest{Set: set}).SetID
			if tc.legacy {
				toLegacyHashDocs(t, u, base)
			}
			tc.damage(t, u, base)
			blobsBefore, _ := blobBE.Keys()
			docsBefore, _ := docBE.Keys()

			runCycle(t, set, st.Datasets, 1, []int{0}, nil)
			_, err := u.Save(SaveRequest{Set: set, Base: base})
			if !errors.Is(err, ErrCorruptBlob) {
				t.Fatalf("derived save on misshapen base hashes: err = %v, want ErrCorruptBlob", err)
			}
			blobsAfter, _ := blobBE.Keys()
			docsAfter, _ := docBE.Keys()
			if fmt.Sprint(blobsAfter) != fmt.Sprint(blobsBefore) || fmt.Sprint(docsAfter) != fmt.Sprint(docsBefore) {
				t.Fatalf("failed save was not rolled back clean:\nblobs %v -> %v\ndocs %v -> %v",
					blobsBefore, blobsAfter, docsBefore, docsAfter)
			}
		})
	}
}

func putHashTable(t *testing.T, u *Update, id string, table hashTable) {
	t.Helper()
	if err := u.stores.Blobs.Put(u.layout.blobKey(id, hashFile), table.raw); err != nil {
		t.Fatal(err)
	}
}

func putHashDoc(t *testing.T, u *Update, id string, edit func(*hashDoc)) {
	t.Helper()
	var doc hashDoc
	if err := u.stores.Docs.Get(updateHashCollection, id, &doc); err != nil {
		t.Fatal(err)
	}
	edit(&doc)
	if err := u.stores.Docs.Insert(updateHashCollection, id, doc); err != nil {
		t.Fatal(err)
	}
}

// readLog is a backend that records what is read of keys ending in
// suffix: whole-value reads and ranged reads, with the bytes returned.
type readLog struct {
	backend.Backend
	suffix string

	mu          sync.Mutex
	whole       int
	ranged      int
	rangedBytes int64
}

func (l *readLog) Get(key string) ([]byte, error) {
	data, err := l.Backend.Get(key)
	if strings.HasSuffix(key, l.suffix) && !strings.HasPrefix(key, ".integrity/") {
		l.mu.Lock()
		l.whole++
		l.mu.Unlock()
	}
	return data, err
}

func (l *readLog) GetRange(key string, off, length int64) ([]byte, error) {
	data, err := l.Backend.GetRange(key, off, length)
	if strings.HasSuffix(key, l.suffix) {
		l.mu.Lock()
		l.ranged++
		l.rangedBytes += int64(len(data))
		l.mu.Unlock()
	}
	return data, err
}

// TestSelectiveRecoverReadsOnlyNeededHashRows: recovering k models
// costs, per chain level, the table's header plus at most k rows — what
// the blob store is asked for — whatever the set's size. (Below the blob
// store each of those reads widens to the 64 KiB checksum chunk around
// it, as every ranged blob read does; the table is never read whole.)
func TestSelectiveRecoverReadsOnlyNeededHashRows(t *testing.T) {
	const k, levels = 16, 2
	var perSize []int64
	for _, n := range []int{200, 2000} {
		log := &readLog{Backend: backend.NewMem(), suffix: "/" + hashFile}
		st := Stores{
			Docs:     docstore.NewMem(),
			Blobs:    blobstore.New(log, latency.CostModel{}, nil),
			Datasets: dataset.NewRegistry(),
		}
		u := NewUpdate(st)
		set := mustNewSet(t, n)
		ids := []string{mustSave(t, u, SaveRequest{Set: set}).SetID}
		// Every level retrains selected models (3 and 40 fully, 7 and
		// n-1 in their last layer) and unselected ones.
		for cycle := 1; cycle <= levels; cycle++ {
			runCycle(t, set, st.Datasets, cycle, []int{3, 40, 100 + cycle}, []int{7, n - 1, 150 + cycle})
			ids = append(ids, mustSave(t, u, SaveRequest{Set: set, Base: ids[len(ids)-1]}).SetID)
		}
		selection := []int{3, 7, 40, n - 1}
		for m := 50; len(selection) < k; m++ {
			selection = append(selection, m)
		}
		selected := map[int]bool{}
		for _, m := range selection {
			selected[m] = true
		}

		// What the recovery must read besides hash info: the
		// architecture, the selected models' parameters, and their diff
		// segments at every level.
		sizes := paramByteSizes(set.Arch)
		archSize, err := st.Blobs.Size(u.layout.blobKey(ids[0], archFile))
		if err != nil {
			t.Fatal(err)
		}
		other := archSize + int64(k*set.Arch.ParamBytes())
		for _, id := range ids[1:] {
			var diff diffDoc
			if err := st.Docs.Get(updateDiffCollection, id, &diff); err != nil {
				t.Fatal(err)
			}
			for _, e := range diff.Entries {
				if selected[e.M] {
					other += int64(sizes[e.P])
				}
			}
		}

		*log = readLog{Backend: log.Backend, suffix: log.suffix}
		st.Blobs.ResetStats()
		rec, err := u.RecoverModels(ids[levels], selection)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range selection {
			if !rec.Models[m].ParamsEqual(set.Models[m]) {
				t.Fatalf("n=%d: model %d recovered incorrectly", n, m)
			}
		}

		hashBytes := st.Blobs.Stats().BytesRead - other
		bound := int64(levels) * (hashHeaderSize + k*hashRowSize(len(sizes)))
		if hashBytes <= 0 || hashBytes > bound {
			t.Errorf("n=%d: selective recover read %d bytes of hash info, want at most %d (header + %d rows, × %d levels)",
				n, hashBytes, bound, k, levels)
		}
		if log.whole != 0 {
			t.Errorf("n=%d: %d whole reads of a hash table", n, log.whole)
		}
		if log.ranged == 0 || log.ranged > levels*(k+1) {
			t.Errorf("n=%d: %d ranged reads of hash tables, want 1..%d", n, log.ranged, levels*(k+1))
		}
		if max := int64(log.ranged) * 2 * 64 << 10; log.rangedBytes > max {
			t.Errorf("n=%d: backend returned %d bytes of hash tables, over %d reads of at most two checksum chunks", n, log.rangedBytes, log.ranged)
		}
		perSize = append(perSize, hashBytes)
	}
	if perSize[0] != perSize[1] {
		t.Errorf("hash info read depends on the set size: %d bytes at n=200, %d at n=2000", perSize[0], perSize[1])
	}
}
