package core

import (
	"errors"
	"testing"

	"github.com/mmm-go/mmm/internal/nn"
)

// checkPartial recovers the given indices and compares each model
// against the truth set.
func checkPartial(t *testing.T, r PartialRecoverer, setID string, truth *ModelSet, indices []int) {
	t.Helper()
	got, err := r.RecoverModels(setID, indices)
	if err != nil {
		t.Fatalf("RecoverModels(%s, %v): %v", setID, indices, err)
	}
	if len(got.Models) != len(uniqueInts(indices)) {
		t.Fatalf("recovered %d models, want %d", len(got.Models), len(uniqueInts(indices)))
	}
	for _, i := range indices {
		m, ok := got.Models[i]
		if !ok {
			t.Fatalf("model %d missing from partial recovery", i)
		}
		if !truth.Models[i].ParamsEqual(m) {
			t.Fatalf("model %d recovered incorrectly", i)
		}
	}
	if got.Arch == nil || got.Arch.ParamCount() != truth.Arch.ParamCount() {
		t.Fatal("partial recovery lost the architecture")
	}
}

func uniqueInts(xs []int) map[int]bool {
	m := map[int]bool{}
	for _, x := range xs {
		m[x] = true
	}
	return m
}

func TestPartialRecoveryBaseline(t *testing.T) {
	st := NewMemStores()
	b := NewBaseline(st)
	set := mustNewSet(t, 12)
	res := mustSave(t, b, SaveRequest{Set: set})
	checkPartial(t, b, res.SetID, set, []int{0, 5, 11})
	checkPartial(t, b, res.SetID, set, []int{7})
}

func TestPartialRecoveryBaselineReadsOnlySelectedBytes(t *testing.T) {
	// The point of ranged reads: recovering 2 of 50 models must read a
	// small fraction of the parameter blob.
	st := NewMemStores()
	b := NewBaseline(st)
	set := mustNewSetArch(t, nn.FFNN48(), 50)
	res := mustSave(t, b, SaveRequest{Set: set})

	before := st.Blobs.Stats().BytesRead
	if _, err := b.RecoverModels(res.SetID, []int{3, 42}); err != nil {
		t.Fatal(err)
	}
	read := st.Blobs.Stats().BytesRead - before
	// 2 models + the architecture blob; far below the 50-model payload.
	budget := int64(3 * set.Arch.ParamBytes())
	if read > budget {
		t.Fatalf("partial recovery read %d bytes, budget %d", read, budget)
	}
}

func TestPartialRecoveryMMlib(t *testing.T) {
	st := NewMemStores()
	m := NewMMlibBase(st)
	set := mustNewSet(t, 9)
	res := mustSave(t, m, SaveRequest{Set: set})
	checkPartial(t, m, res.SetID, set, []int{2, 8})
}

func TestPartialRecoveryUpdateChain(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	ids, truths := saveUpdateChain(t, u, st, 3)
	for level, id := range ids {
		checkPartial(t, u, id, truths[level], []int{0, 4, 7})
	}
}

func TestPartialRecoveryUpdateTouchedAndUntouched(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st)
	set := mustNewSet(t, 8)
	resFull := mustSave(t, u, SaveRequest{Set: set})
	runCycle(t, set, st.Datasets, 1, []int{2}, []int{5})
	res := mustSave(t, u, SaveRequest{Set: set, Base: resFull.SetID})

	// Recover one updated and one untouched model.
	checkPartial(t, u, res.SetID, set, []int{2, 3})
	checkPartial(t, u, res.SetID, set, []int{5})
}

func TestPartialRecoveryUpdateCompressed(t *testing.T) {
	st := NewMemStores()
	u := NewUpdate(st, WithCodec("zlib"))
	set := mustNewSetArch(t, nn.FFNN48(), 6)
	resFull := mustSave(t, u, SaveRequest{Set: set})
	// Compressible change (sparsified layer) plus a trained change.
	w, err := set.Models[1].LayerParam("fc2.weight")
	if err != nil {
		t.Fatal(err)
	}
	for i := range w.Data {
		if i%8 != 0 {
			w.Data[i] = 0
		}
	}
	res := mustSave(t, u, SaveRequest{Set: set, Base: resFull.SetID})
	checkPartial(t, u, res.SetID, set, []int{1, 4})
}

func TestPartialRecoveryProvenanceChain(t *testing.T) {
	st := NewMemStores()
	p := NewProvenance(st)
	ids, truths := saveProvenanceChain(t, p, st, 2)
	for level, id := range ids {
		checkPartial(t, p, id, truths[level], []int{1, 3})
	}
}

func TestPartialRecoveryValidation(t *testing.T) {
	st := NewMemStores()
	b := NewBaseline(st)
	set := mustNewSet(t, 4)
	res := mustSave(t, b, SaveRequest{Set: set})

	if _, err := b.RecoverModels(res.SetID, nil); err == nil {
		t.Error("empty index list accepted")
	}
	if _, err := b.RecoverModels(res.SetID, []int{4}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := b.RecoverModels(res.SetID, []int{-1}); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := b.RecoverModels("bl-404", []int{0}); !errors.Is(err, ErrSetNotFound) {
		t.Error("unknown set accepted")
	}
	// Duplicates are tolerated (deduplicated).
	got, err := b.RecoverModels(res.SetID, []int{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Models) != 2 {
		t.Fatalf("duplicate indices produced %d models, want 2", len(got.Models))
	}
}

func TestPartialRecoveryAllApproachesAgree(t *testing.T) {
	// Integration: one scenario saved by all approaches; partial
	// recovery of the same indices must agree everywhere.
	st := NewMemStores()
	approaches := []struct {
		a Approach
		p PartialRecoverer
	}{}
	bl := NewBaseline(st)
	ml := NewMMlibBase(st)
	up := NewUpdate(st)
	pv := NewProvenance(st)
	approaches = append(approaches,
		struct {
			a Approach
			p PartialRecoverer
		}{bl, bl}, struct {
			a Approach
			p PartialRecoverer
		}{ml, ml}, struct {
			a Approach
			p PartialRecoverer
		}{up, up}, struct {
			a Approach
			p PartialRecoverer
		}{pv, pv})

	set := mustNewSet(t, 10)
	ids := map[string]string{}
	for _, ap := range approaches {
		res := mustSave(t, ap.a, SaveRequest{Set: set})
		ids[ap.a.Name()] = res.SetID
	}
	updates := runCycle(t, set, st.Datasets, 1, []int{3}, []int{6})
	for _, ap := range approaches {
		res := mustSave(t, ap.a, SaveRequest{
			Set: set, Base: ids[ap.a.Name()], Updates: updates, Train: testTrainInfo(),
		})
		ids[ap.a.Name()] = res.SetID
	}
	for _, ap := range approaches {
		checkPartial(t, ap.p, ids[ap.a.Name()], set, []int{3, 6, 9})
	}
}

func TestParamByteSizesMatchModel(t *testing.T) {
	for _, arch := range []*nn.Architecture{nn.FFNN48(), nn.FFNN69(), nn.CIFARNet()} {
		sizes := paramByteSizes(arch)
		m := nn.MustNewModel(arch, 1)
		params := m.Params()
		if len(sizes) != len(params) {
			t.Fatalf("%s: %d sizes for %d params", arch.Name, len(sizes), len(params))
		}
		total := 0
		for i, p := range params {
			if sizes[i] != 4*p.Tensor.Len() {
				t.Fatalf("%s: param %d size %d, want %d", arch.Name, i, sizes[i], 4*p.Tensor.Len())
			}
			total += sizes[i]
		}
		if total != arch.ParamBytes() {
			t.Fatalf("%s: sizes sum to %d, want %d", arch.Name, total, arch.ParamBytes())
		}
	}
}
