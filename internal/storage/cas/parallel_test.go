package cas

import (
	"bytes"
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

// TestPutEncodedParallelIdentical pins the fan-out contract: the bytes
// a parallel encode+write pipeline stores are identical to a serial
// run's, chunk for chunk, so concurrency can never change what lands
// on disk.
func TestPutEncodedParallelIdentical(t *testing.T) {
	zlib, err := codec.Lookup(codec.ZlibID)
	if err != nil {
		t.Fatal(err)
	}
	blob := pipelineBlob(32)
	stores := map[int]*blobstore.Store{}
	for _, w := range []int{1, 8} {
		b := blobstore.NewMem()
		if _, err := For(b).PutEncoded("k", blob, 4096, Hints{},
			Encoding{Codec: zlib, Workers: w}, nil); err != nil {
			t.Fatalf("PutEncoded at %d workers: %v", w, err)
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
	s.refMu.Lock()
	leaked := len(s.pending)
	s.refMu.Unlock()
	if leaked != 0 {
		t.Fatalf("failed PutEncoded leaked %d pending entries", leaked)
	}
}
