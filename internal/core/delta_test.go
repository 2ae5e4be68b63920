package core

import (
	"testing"

	"github.com/mmm-go/mmm/internal/nn"
)

func TestDeltaEncodingRoundTrip(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st, WithCodec("zlib"))
	u.DeltaEncoding = true
	ids, truths := saveUpdateChain(t, u, st, 3)
	for i, id := range ids {
		got := mustRecover(t, u, id)
		if !truths[i].Equal(got) {
			t.Fatalf("set %d (%s) recovered incorrectly under delta encoding", i, id)
		}
	}
}

func TestDeltaEncodingPartialRecovery(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st, WithCodec("zlib"))
	u.DeltaEncoding = true
	ids, truths := saveUpdateChain(t, u, st, 2)
	for i, id := range ids {
		checkPartial(t, u, id, truths[i], []int{0, 3, 7})
	}
}

func TestDeltaEncodingCompressesBetterThanRaw(t *testing.T) {
	// The point of XOR deltas: a fine-tuned layer's floats share sign,
	// exponent, and high mantissa bits with their base values, so the
	// XOR stream zlib-compresses much better than the raw floats do.
	run := func(delta bool) int64 {
		st := NewMemStores()
		u := NewUpdate(st, WithCodec("zlib"))
		u.DeltaEncoding = delta
		set := mustNewSetArch(t, nn.FFNN48(), 10)
		resFull := mustSave(t, u, SaveRequest{Set: set})
		// A gentle fine-tune: tiny nudges leave the high float bits
		// intact (exactly what one retraining cycle does).
		w, err := set.Models[2].LayerParam("fc2.weight")
		if err != nil {
			t.Fatal(err)
		}
		for i := range w.Data {
			w.Data[i] *= 1.0001
		}
		res := mustSave(t, u, SaveRequest{Set: set, Base: resFull.SetID})

		// Verify correctness along the way.
		got := mustRecover(t, u, res.SetID)
		if !set.Equal(got) {
			t.Fatal("recovery wrong")
		}
		// Compare the diff blobs themselves: the per-set hash documents
		// are identical fixed overhead in both configurations.
		size, err := st.Blobs.Size(updateBlobPrefix + "/" + res.SetID + "/diff.bin")
		if err != nil {
			t.Fatal(err)
		}
		return size
	}
	raw := run(false)
	delta := run(true)
	if !(delta < raw*7/10) {
		t.Fatalf("delta-encoded diff blob (%d B) not well below raw compressed blob (%d B)", delta, raw)
	}
}

func TestDeltaEncodingMarkedInDiffDoc(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	u.DeltaEncoding = true
	set := mustNewSet(t, 4)
	resFull := mustSave(t, u, SaveRequest{Set: set})
	runCycle(t, set, st.Datasets, 1, []int{0}, nil)
	res := mustSave(t, u, SaveRequest{Set: set, Base: resFull.SetID})

	var diff diffDoc
	if err := st.Docs.Get(updateDiffCollection, res.SetID, &diff); err != nil {
		t.Fatal(err)
	}
	if !diff.Delta {
		t.Fatal("delta flag not recorded")
	}
	// A reader without DeltaEncoding configured must still recover
	// correctly — the flag lives in the data, not the approach config.
	reader := NewUpdate(st)
	got := mustRecover(t, reader, res.SetID)
	if !set.Equal(got) {
		t.Fatal("plain reader failed to recover delta-encoded set")
	}
}

func TestDeltaEncodingEmptyDiff(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	u.DeltaEncoding = true
	set := mustNewSet(t, 4)
	resFull := mustSave(t, u, SaveRequest{Set: set})
	res := mustSave(t, u, SaveRequest{Set: set, Base: resFull.SetID})
	got := mustRecover(t, u, res.SetID)
	if !set.Equal(got) {
		t.Fatal("unchanged delta-encoded set recovered incorrectly")
	}
	var diff diffDoc
	if err := st.Docs.Get(updateDiffCollection, res.SetID, &diff); err != nil {
		t.Fatal(err)
	}
	if diff.Delta {
		t.Fatal("empty diff should not be marked delta (no base values were read)")
	}
}
