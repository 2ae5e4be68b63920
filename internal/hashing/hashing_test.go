package hashing

import (
	"bytes"
	"crypto/sha256"
	"testing"
	"testing/quick"

	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/tensor"
)

func TestTensorHashStable(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3}, 3)
	b := tensor.FromSlice([]float32{1, 2, 3}, 3)
	if Tensor(a) != Tensor(b) {
		t.Fatal("identical tensors hash differently")
	}
}

func TestTensorHashSensitive(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3}, 3)
	b := tensor.FromSlice([]float32{1, 2, 3.0000002}, 3)
	if Tensor(a) == Tensor(b) {
		t.Fatal("one-ulp change not detected")
	}
}

// TestTensorHashIsSHA256OfRawBytes pins the digest: stores written by
// earlier versions recorded (in hex) exactly this value.
func TestTensorHashIsSHA256OfRawBytes(t *testing.T) {
	a := tensor.FromSlice([]float32{1, -2.5, 3e-7, 0}, 4)
	if got, want := Tensor(a), sha256.Sum256(a.Bytes()); got != want {
		t.Fatalf("Tensor = %x, want SHA-256 of the raw bytes %x", got, want)
	}
	// A pooled buffer that last held a longer tensor must not leak into
	// the next hash.
	big := tensor.New(64)
	Tensor(big)
	if got, want := Tensor(a), sha256.Sum256(a.Bytes()); got != want {
		t.Fatalf("Tensor after a larger tensor = %x, want %x", got, want)
	}
}

func TestModelListAlignedWithParamKeys(t *testing.T) {
	m := nn.MustNewModel(nn.FFNN48(), 1)
	row := ModelList(m)
	keys := m.Arch.ParamKeys()
	if len(row) != len(keys)*Size {
		t.Fatalf("row has %d bytes, want %d digests of %d", len(row), len(keys), Size)
	}
	for i, k := range keys {
		p, err := m.LayerParam(k)
		if err != nil {
			t.Fatal(err)
		}
		want := Tensor(p)
		if !bytes.Equal(row[i*Size:(i+1)*Size], want[:]) {
			t.Fatalf("digest %d does not match hash of %s", i, k)
		}
	}
}

func TestModelHashDetectsLayerChange(t *testing.T) {
	a := nn.MustNewModel(nn.FFNN48(), 1)
	b := a.Clone()
	w, err := b.LayerParam("fc3.weight")
	if err != nil {
		t.Fatal(err)
	}
	w.Data[0] += 0.5

	changed := DiffKeys(ModelList(a), ModelList(b))
	if len(changed) != 1 {
		t.Fatalf("changed indices = %v, want exactly one", changed)
	}
	keys := a.Arch.ParamKeys()
	if keys[changed[0]] != "fc3.weight" {
		t.Fatalf("changed key = %s, want fc3.weight", keys[changed[0]])
	}
}

func TestDiffKeysIdentical(t *testing.T) {
	m := nn.MustNewModel(nn.FFNN48(), 1)
	if d := DiffKeys(ModelList(m), ModelList(m)); len(d) != 0 {
		t.Fatalf("identical model reports changes: %v", d)
	}
}

// TestDiffKeysLengthMismatchPanics: a shape disagreement used to be
// reported as "every layer changed", which let a damaged base hash
// record produce a full-size diff; callers now check shapes first.
func TestDiffKeysLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("DiffKeys accepted rows of different lengths")
		}
	}()
	DiffKeys(make([]byte, Size), make([]byte, 3*Size))
}

func TestQuickHashDeterministic(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		a := tensor.FromSlice(vals, len(vals))
		return Tensor(a) == Tensor(a.Clone())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

var sinkRow []byte

// BenchmarkModelList hashes one FFNN-48 model per iteration — the unit
// Update's save path runs per model. Beyond throughput it asserts the
// allocation profile: hashing a tensor allocates nothing, so a model
// costs its parameter listing plus the one row returned, however large
// its tensors are.
func BenchmarkModelList(b *testing.B) {
	m := nn.MustNewModel(nn.FFNN48(), 1)
	ModelList(m) // fill the scratch pool

	p := m.Params()[0].Tensor
	if n := testing.AllocsPerRun(100, func() { Tensor(p) }); n != 0 {
		b.Fatalf("Tensor allocates %v times per call, want 0", n)
	}
	listing := testing.AllocsPerRun(100, func() { m.Params() })
	if n := testing.AllocsPerRun(100, func() { sinkRow = ModelList(m) }); n > listing+1 {
		b.Fatalf("ModelList allocates %v times per model, want at most %v (parameter listing + the row)", n, listing+1)
	}

	b.SetBytes(int64(4 * m.ParamCount()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkRow = ModelList(m)
	}
}
