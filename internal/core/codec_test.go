package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/mmm-go/mmm/internal/codec"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// Codec acceptance tests: every approach × every registered codec ×
// dedup on/off must recover bit-identically, pass fsck with no flags,
// and report the configured codec through Du; corrupt or unknown codec
// IDs must surface as ErrCorruptBlob, never as garbage models.

var codecMatrixApproaches = []string{"Baseline", "Update", "Provenance", "MMlibBase"}

func TestCodecMatrixRoundTrip(t *testing.T) {
	for _, name := range codecMatrixApproaches {
		for _, id := range []string{"", codec.NoneID, codec.ZlibID, codec.TLZID} {
			for _, dedup := range []bool{false, true} {
				label := id
				if label == "" {
					label = "unset"
				}
				t.Run(fmt.Sprintf("%s/%s/dedup=%v", name, label, dedup), func(t *testing.T) {
					st := NewMemStores()
					var opts []Option
					if id != "" {
						opts = append(opts, WithCodec(id))
					}
					commits := runDedupWorkload(t, st, name, dedup, opts...)

					// Readers are codec-agnostic: recover through an
					// approach configured with a *different* codec.
					reader := buildCodecApproach(t, st, name, WithCodec(codec.TLZID))
					for i, c := range commits {
						got, err := reader.Recover(c.setID)
						if err != nil {
							t.Fatalf("recovering commit %d (%s): %v", i, c.setID, err)
						}
						if !got.Equal(c.want) {
							t.Fatalf("commit %d (%s): recovered set differs from saved state", i, c.setID)
						}
					}

					report, err := Fsck(st, FsckOptions{})
					if err != nil {
						t.Fatalf("fsck: %v", err)
					}
					if n := report.DamagedCount(); n != 0 {
						t.Fatalf("fsck found %d damaged issue(s): %v", n, report.Issues)
					}

					du, err := Du(st)
					if err != nil {
						t.Fatalf("du: %v", err)
					}
					wantCodec := id
					if id == codec.NoneID {
						// "none" resolves to no codec; metadata records
						// the configured ID verbatim.
						wantCodec = codec.NoneID
					}
					for _, row := range du.Sets {
						if row.Codec != wantCodec {
							t.Errorf("du: set %s codec = %q, want %q", row.SetID, row.Codec, wantCodec)
						}
						// Provenance's derived sets hold only documents,
						// so zero blob bytes is legitimate; negatives
						// never are.
						if row.LogicalBytes < 0 || row.PhysicalBytes < 0 {
							t.Errorf("du: set %s has negative accounting: logical %d physical %d",
								row.SetID, row.LogicalBytes, row.PhysicalBytes)
						}
					}
				})
			}
		}
	}
}

// buildCodecApproach constructs one approach over st.
func buildCodecApproach(t *testing.T, st Stores, name string, opts ...Option) Approach {
	t.Helper()
	opts = append([]Option{WithConcurrency(1)}, opts...)
	switch name {
	case "Baseline":
		return NewBaseline(st, opts...)
	case "Update":
		return NewUpdate(st, opts...)
	case "Provenance":
		return NewProvenance(st, opts...)
	case "MMlibBase":
		return NewMMlibBase(st, opts...)
	}
	t.Fatalf("unknown approach %s", name)
	return nil
}

func TestUnknownCodecFailsSave(t *testing.T) {
	st := NewMemStores()
	for _, name := range codecMatrixApproaches {
		a := buildCodecApproach(t, st, name, WithCodec("bogus-42"))
		_, err := a.Save(SaveRequest{Set: mustNewSet(t, 2)})
		if err == nil || !strings.Contains(err.Error(), "bogus-42") {
			t.Errorf("%s: save with unknown codec: err = %v, want mention of bogus-42", name, err)
		}
	}
}

// TestPreCodecStoreReadable pins backward compatibility: sets saved
// with no codec configured (the pre-codec on-disk format: no codec
// fields anywhere) recover through codec-configured readers unchanged.
func TestPreCodecStoreReadable(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	set := mustNewSet(t, 3)
	res := mustSave(t, u, SaveRequest{Set: set})

	var meta setMeta
	if err := st.Docs.Get(updateCollection, res.SetID, &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Codec != "" {
		t.Fatalf("uncodec'd save persisted codec %q, want empty", meta.Codec)
	}

	reader := NewUpdate(st, WithCodec(codec.ZlibID))
	got, err := reader.Recover(res.SetID)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(set) {
		t.Fatal("pre-codec set recovered differently through codec-configured reader")
	}
}

// TestLegacyCompressedDiffDocReadable rewrites a zlib diff document the
// way binaries from before the codec layer wrote it — compressed:true
// and no codec field — and recovers through it. Current writers emit
// only the codec field.
func TestLegacyCompressedDiffDocReadable(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st, WithCodec(codec.ZlibID))
	id, _ := plantCompressedDiff(t, u, st)
	want := mustRecover(t, u, id)

	var diff diffDoc
	if err := st.Docs.Get(updateDiffCollection, id, &diff); err != nil {
		t.Fatal(err)
	}
	if diff.Compressed || diff.Codec != codec.ZlibID {
		t.Fatalf("zlib diff document written as compressed=%v codec=%q, want only codec %q",
			diff.Compressed, diff.Codec, codec.ZlibID)
	}
	diff.Compressed, diff.Codec = true, ""
	if err := st.Docs.Insert(updateDiffCollection, id, diff); err != nil {
		t.Fatal(err)
	}
	if got := mustRecover(t, NewUpdate(st), id); !got.Equal(want) {
		t.Fatal("legacy compressed diff document recovered differently")
	}
}

// TestDiffDocUnknownCodecID corrupts the persisted diff document to
// name a codec this build does not have: recovery must fail with
// ErrCorruptBlob instead of misreading the blob bytes.
func TestDiffDocUnknownCodecID(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st, WithCodec(codec.TLZID))
	id, _ := plantCompressedDiff(t, u, st)

	var diff diffDoc
	if err := st.Docs.Get(updateDiffCollection, id, &diff); err != nil {
		t.Fatal(err)
	}
	diff.Codec = "from-the-future"
	diff.Compressed = false
	if err := st.Docs.Insert(updateDiffCollection, id, diff); err != nil {
		t.Fatal(err)
	}

	if _, err := u.Recover(id); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("recover with unknown diff codec: err = %v, want ErrCorruptBlob", err)
	}
	if _, err := u.RecoverModels(id, []int{0}); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("partial recover with unknown diff codec: err = %v, want ErrCorruptBlob", err)
	}
}

// TestCorruptEncodedChunkBody overwrites a compressed CAS chunk body
// with bytes that frame-decode to garbage: reads must fail with
// ErrCorruptBlob (wrapping cas.ErrCorrupt), and fsck must report the
// damage rather than pass the store.
func TestCorruptEncodedChunkBody(t *testing.T) {
	st := NewMemStores()
	b := NewBaseline(st, WithDedup(), WithCodec(codec.TLZID))
	// A factory fleet compresses well, guaranteeing encoded (framed)
	// chunk bodies rather than raw keep-if-smaller fallbacks.
	set := factoryFleet(t, testArch(), 4)
	res := mustSave(t, b, SaveRequest{Set: set})

	key := baselineBlobPrefix + "/" + res.SetID + "/params.bin"
	recipe, err := cas.For(st.Blobs).Recipe(key)
	if err != nil {
		t.Fatal(err)
	}
	if recipe.Codec != codec.TLZID {
		t.Fatalf("recipe codec = %q, want %q", recipe.Codec, codec.TLZID)
	}
	var tampered bool
	for _, c := range recipe.Chunks {
		stored, err := st.Blobs.Size(cas.ChunkKey(c.Hash))
		if err != nil {
			t.Fatal(err)
		}
		if stored == c.Size {
			continue // raw body; framing only applies to smaller-encoded ones
		}
		// Valid wire ID, garbage payload, still shorter than logical.
		garbage := append([]byte{1}, make([]byte, int(c.Size)/2)...)
		if err := st.Blobs.Put(cas.ChunkKey(c.Hash), garbage); err != nil {
			t.Fatal(err)
		}
		tampered = true
		break
	}
	if !tampered {
		t.Fatal("no encoded chunk found to tamper with; fleet should compress")
	}

	if _, err := b.Recover(res.SetID); !errors.Is(err, ErrCorruptBlob) {
		t.Fatalf("recover with corrupt chunk body: err = %v, want ErrCorruptBlob", err)
	}
	report, err := Fsck(st, FsckOptions{})
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if report.DamagedCount() == 0 {
		t.Fatal("fsck passed a store with a corrupt encoded chunk body")
	}
}

// TestDedupCodecSharesChunksAcrossCodecs pins the design decision that
// content addresses cover logical bytes: the same parameters saved
// under different codecs share chunk hashes (one recipe references the
// other's chunks) instead of storing the data twice.
func TestDedupCodecSharesChunksAcrossCodecs(t *testing.T) {
	st := NewMemStores()
	set := factoryFleet(t, testArch(), 4)

	a1 := NewBaseline(st, WithDedup(), WithCodec(codec.TLZID))
	res1 := mustSave(t, a1, SaveRequest{Set: set})
	du1, err := Du(st)
	if err != nil {
		t.Fatal(err)
	}

	a2 := NewBaseline(st, WithDedup(), WithCodec(codec.ZlibID))
	res2 := mustSave(t, a2, SaveRequest{Set: set.Clone()})
	du2, err := Du(st)
	if err != nil {
		t.Fatal(err)
	}
	if du2.Chunks != du1.Chunks {
		t.Fatalf("second save under a different codec created %d new chunk(s); logical addressing should dedup them all",
			du2.Chunks-du1.Chunks)
	}
	for _, id := range []string{res1.SetID, res2.SetID} {
		got, err := a1.Recover(id)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(set) {
			t.Fatalf("set %s recovered differently", id)
		}
	}
}
