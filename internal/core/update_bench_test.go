package core

import (
	"testing"

	"github.com/mmm-go/mmm/internal/nn"
)

// The paper-scale Update micro-benchmarks: an FFNN-48 fleet of 2000
// models whose every cycle changes 5 % of the models in all layers and
// another 5 % in their last layer (the paper's U3 update rates), saved
// as U1 plus three derived sets.
const (
	benchFleetModels = 2000
	benchChainDepth  = 3
	benchSelectCount = 16
)

// benchPerturb applies update cycle c to set in place, without the
// cost of training: what a save sees is which tensors' bytes changed.
func benchPerturb(set *ModelSet, c int) {
	for m := (7 * c) % 20; m < len(set.Models); m += 20 {
		for _, p := range set.Models[m].Params() {
			p.Tensor.Data[0] += 1e-3
		}
		if partial := m + 10; partial < len(set.Models) {
			params := set.Models[partial].Params()
			for _, p := range params[len(params)-2:] {
				p.Tensor.Data[0] += 1e-3
			}
		}
	}
}

// benchUpdateChain saves U1 and benchChainDepth derived sets and
// returns their IDs with the tip's state.
func benchUpdateChain(b *testing.B, u *Update) ([]string, *ModelSet) {
	b.Helper()
	set, err := NewModelSet(nn.FFNN48(), benchFleetModels, testFleetSeed)
	if err != nil {
		b.Fatal(err)
	}
	res, err := u.Save(SaveRequest{Set: set})
	if err != nil {
		b.Fatal(err)
	}
	ids := []string{res.SetID}
	for c := 1; c <= benchChainDepth; c++ {
		benchPerturb(set, c)
		if res, err = u.Save(SaveRequest{Set: set, Base: ids[len(ids)-1]}); err != nil {
			b.Fatal(err)
		}
		ids = append(ids, res.SetID)
	}
	return ids, set
}

// BenchmarkUpdateSaveDerived times one derived save at chain depth 3:
// hash the set, load the base's hash info, diff, write the changed
// layers and the new hash info.
func BenchmarkUpdateSaveDerived(b *testing.B) {
	u := NewUpdate(NewMemStores(), WithConcurrency(1))
	ids, set := benchUpdateChain(b, u)
	base := ids[benchChainDepth-1]
	b.SetBytes(int64(len(set.Models) * set.Arch.ParamBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := u.Save(SaveRequest{Set: set, Base: base}); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if _, err := u.Prune(ids); err != nil { // keep the store from growing
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkUpdateSelectiveRecover times recovering 16 of the 2000
// models from the tip of the depth-3 chain, a different selection each
// iteration.
func BenchmarkUpdateSelectiveRecover(b *testing.B) {
	u := NewUpdate(NewMemStores(), WithConcurrency(1))
	ids, set := benchUpdateChain(b, u)
	tip := ids[benchChainDepth]
	selection := make([]int, benchSelectCount)
	b.SetBytes(int64(benchSelectCount * set.Arch.ParamBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range selection {
			selection[j] = (i*31 + j*(benchFleetModels/benchSelectCount)) % benchFleetModels
		}
		rec, err := u.RecoverModels(tip, selection)
		if err != nil {
			b.Fatal(err)
		}
		if len(rec.Models) != benchSelectCount {
			b.Fatalf("recovered %d models, want %d", len(rec.Models), benchSelectCount)
		}
	}
}
