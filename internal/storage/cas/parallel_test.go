package cas

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/mmm-go/mmm/internal/codec"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

// pipelineBlob builds a blob of distinct, compressible 4 KiB chunks so
// an encoding PutEncoded has many independent encode+write tasks.
func pipelineBlob(n int) []byte {
	var blob []byte
	for i := 0; i < n; i++ {
		blob = append(blob, bytes.Repeat([]byte{byte(i)}, 4096)...)
	}
	return blob
}

// overlapBackend counts the Puts in flight and records their peak. A
// Put that finds itself alone yields the processor a bounded number of
// times first, so callers able to overlap their writes reliably do —
// without sleeps — while a serial caller still sees a peak of exactly 1.
type overlapBackend struct {
	backend.Backend
	inflight, peak atomic.Int64
}

func (o *overlapBackend) Put(key string, data []byte) error {
	n := o.inflight.Add(1)
	defer o.inflight.Add(-1)
	for p := o.peak.Load(); n > p && !o.peak.CompareAndSwap(p, n); p = o.peak.Load() {
	}
	for i := 0; i < 1000 && o.peak.Load() < 2; i++ {
		runtime.Gosched()
	}
	return o.Backend.Put(key, data)
}

// TestPutEncodedParallelIdentical pins the fan-out contract: the bytes
// a parallel encode+write pipeline stores are identical to a serial
// run's, chunk for chunk, so concurrency can never change what lands
// on disk — and the parallel run really overlaps its chunk writes
// while the serial one never does.
func TestPutEncodedParallelIdentical(t *testing.T) {
	zlib, err := codec.Lookup(codec.ZlibID)
	if err != nil {
		t.Fatal(err)
	}
	blob := pipelineBlob(32)
	stores := map[int]*blobstore.Store{}
	for _, w := range []int{1, 8} {
		counted := &overlapBackend{Backend: backend.NewMem()}
		b := blobstore.New(counted, latency.CostModel{}, nil)
		if _, err := For(b).PutEncoded("k", blob, 4096, Hints{},
			Encoding{Codec: zlib, Workers: w}, nil); err != nil {
			t.Fatalf("PutEncoded at %d workers: %v", w, err)
		}
		if peak := counted.peak.Load(); w == 1 && peak != 1 || w > 1 && peak < 2 {
			t.Fatalf("peak in-flight Puts at %d workers = %d; want 1 serial, >= 2 parallel", w, peak)
		}
		got, err := For(b).Get("k")
		if err != nil || !bytes.Equal(got, blob) {
			t.Fatalf("round trip at %d workers: %v", w, err)
		}
		stores[w] = b
	}
	serialKeys, err := stores[1].Keys()
	if err != nil {
		t.Fatal(err)
	}
	parallelKeys, err := stores[8].Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(serialKeys) != len(parallelKeys) {
		t.Fatalf("serial wrote %d keys, parallel %d", len(serialKeys), len(parallelKeys))
	}
	for _, k := range serialKeys {
		sv, err1 := stores[1].Get(k)
		pv, err2 := stores[8].Get(k)
		if err1 != nil || err2 != nil || !bytes.Equal(sv, pv) {
			t.Fatalf("key %s differs between serial and parallel runs", k)
		}
	}
}

// TestPutEncodedParallelUndo fails the backend partway through the
// parallel chunk fan-out and checks the undo path still accounts for
// every chunk that made it down before the failure: no recipe, no
// orphaned chunks, no leaked pending entries.
func TestPutEncodedParallelUndo(t *testing.T) {
	zlib, err := codec.Lookup(codec.ZlibID)
	if err != nil {
		t.Fatal(err)
	}
	faulty := backend.NewFaulty(backend.NewMem())
	b := blobstore.New(faulty, latency.CostModel{}, nil)
	s := For(b)
	// Let a handful of backend writes land (each chunk costs a data put
	// plus a manifest put), then die mid-save.
	faulty.FailPutsAfter(5)
	if _, err := s.PutEncoded("k", pipelineBlob(32), 4096, Hints{},
		Encoding{Codec: zlib, Workers: 8}, nil); err == nil {
		t.Fatal("PutEncoded succeeded on a dying store")
	}
	if _, err := s.Recipe("k"); !backend.IsNotFound(err) {
		t.Fatal("failed PutEncoded left its recipe behind")
	}
	faulty.FailPutsAfter(-1)
	scan, err := ScanStore(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Chunks) != 0 {
		t.Fatalf("failed PutEncoded orphaned %d chunks", len(scan.Chunks))
	}
	s.mu.Lock()
	leaked := len(s.pending)
	s.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("failed PutEncoded leaked %d pending entries", leaked)
	}
}
