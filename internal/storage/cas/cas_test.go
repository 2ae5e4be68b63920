package cas

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

func newTestStore(t *testing.T) (*Store, *blobstore.Store) {
	t.Helper()
	b := blobstore.NewMem()
	return For(b), b
}

func reg(t *testing.T) *obs.Registry {
	t.Helper()
	return obs.New()
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := newTestStore(t)
	data := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 100)
	res, err := s.Put("a/params.bin", data, 64, Hints{}, reg(t))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if res.NewChunks == 0 || res.PhysicalBytes == 0 {
		t.Fatalf("first Put reported no new data: %+v", res)
	}
	got, err := s.Get("a/params.bin")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %d bytes, want %d", len(got), len(data))
	}
	size, err := s.Size("a/params.bin")
	if err != nil || size != int64(len(data)) {
		t.Fatalf("Size = %d, %v; want %d", size, err, len(data))
	}
}

func TestPutDeduplicates(t *testing.T) {
	s, _ := newTestStore(t)
	data := bytes.Repeat([]byte{9}, 1000)
	first, err := s.Put("one", data, 100, Hints{}, reg(t))
	if err != nil {
		t.Fatalf("Put one: %v", err)
	}
	// Identical content chunked identically: the second logical blob
	// must cost only its recipe.
	second, err := s.Put("two", data, 100, Hints{}, reg(t))
	if err != nil {
		t.Fatalf("Put two: %v", err)
	}
	if second.NewChunks != 0 {
		t.Fatalf("second Put wrote %d new chunks, want 0", second.NewChunks)
	}
	if second.DedupBytes != int64(len(data)) {
		t.Fatalf("second Put deduped %d bytes, want %d", second.DedupBytes, len(data))
	}
	if second.PhysicalBytes >= first.PhysicalBytes {
		t.Fatalf("second Put cost %d physical bytes, first cost %d", second.PhysicalBytes, first.PhysicalBytes)
	}
	// All-identical chunks within one blob collapse to a single chunk.
	if first.NewChunks != 1 {
		t.Fatalf("first Put of repeated bytes wrote %d chunks, want 1", first.NewChunks)
	}
}

func TestGetRange(t *testing.T) {
	s, _ := newTestStore(t)
	data := make([]byte, 997)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := s.Put("k", data, 100, Hints{Boundaries: []int{333}}, reg(t)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for _, r := range [][2]int64{{0, 50}, {95, 120}, {300, 400}, {0, 997}, {996, 1}, {500, 0}} {
		got, err := s.GetRange("k", r[0], r[1])
		if err != nil {
			t.Fatalf("GetRange(%d, %d): %v", r[0], r[1], err)
		}
		if !bytes.Equal(got, data[r[0]:r[0]+r[1]]) {
			t.Fatalf("GetRange(%d, %d) mismatch", r[0], r[1])
		}
	}
	if _, err := s.GetRange("k", 990, 100); err == nil {
		t.Fatal("out-of-range GetRange succeeded")
	} else {
		var re *backend.RangeError
		if !errors.As(err, &re) {
			t.Fatalf("out-of-range GetRange error = %v, want RangeError", err)
		}
	}
}

func TestReleaseFreesOnlyUnshared(t *testing.T) {
	s, b := newTestStore(t)
	shared := bytes.Repeat([]byte{1}, 400)
	only := bytes.Repeat([]byte{2}, 400)
	if _, err := s.Put("a", append(append([]byte{}, shared...), only...), 100, Hints{Stride: 400}, reg(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("b", shared, 100, Hints{}, reg(t)); err != nil {
		t.Fatal(err)
	}
	freed, err := s.Delete("a")
	if err != nil {
		t.Fatalf("Release: %v", err)
	}
	// "a"'s unshared chunk (400 bytes) plus its recipe must be freed;
	// the shared chunk stays for "b".
	if freed < 400 {
		t.Fatalf("Release freed %d bytes, want >= 400", freed)
	}
	if got, err := s.Get("b"); err != nil || !bytes.Equal(got, shared) {
		t.Fatalf("shared blob damaged after release: %v", err)
	}
	if _, err := s.Get("a"); !backend.IsNotFound(err) {
		t.Fatalf("released blob still readable: %v", err)
	}
	// Releasing again is a no-op.
	if freed, err := s.Delete("a"); err != nil || freed != 0 {
		t.Fatalf("second Release = %d, %v; want 0, nil", freed, err)
	}
	// No unreferenced chunks remain.
	scan, err := ScanStore(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan.Chunks) != 1 {
		t.Fatalf("store holds %d chunks after release, want 1", len(scan.Chunks))
	}
}

func TestGCDeletesOnlyUnreferenced(t *testing.T) {
	s, b := newTestStore(t)
	if _, err := s.Put("live", bytes.Repeat([]byte{5}, 300), 100, Hints{}, reg(t)); err != nil {
		t.Fatal(err)
	}
	// Fabricate crash debris: a chunk no recipe lists.
	orphan := bytes.Repeat([]byte{6}, 123)
	if err := b.Put(ChunkKey(hashChunk(orphan)), orphan); err != nil {
		t.Fatal(err)
	}
	report, err := s.GC(reg(t))
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if report.ChunksDeleted != 1 || report.BytesFreed != 123 {
		t.Fatalf("GC deleted %d chunks / %d bytes, want 1 / 123", report.ChunksDeleted, report.BytesFreed)
	}
	if got, err := s.Get("live"); err != nil || len(got) != 300 {
		t.Fatalf("GC damaged live data: %v", err)
	}
}

func TestPutUndoOnRecipeFailure(t *testing.T) {
	// Fail the recipe write, and check Put removed its recipe and its
	// new chunks but left the other key's data untouched.
	faulty := backend.NewFaulty(backend.NewMem())
	b := blobstore.New(faulty, latency.CostModel{}, nil)
	s := For(b)
	keep := bytes.Repeat([]byte{1}, 200)
	if _, err := s.Put("keep", keep, 100, Hints{}, reg(t)); err != nil {
		t.Fatal(err)
	}
	bad := bytes.Repeat([]byte{1}, 100) // shares chunk 0 with "keep"
	bad = append(bad, bytes.Repeat([]byte{3}, 100)...)
	// The new chunk lands (its body and its manifest), the recipe does
	// not.
	faulty.FailPutsAfter(2)
	if _, err := s.Put("bad", bad, 100, Hints{}, reg(t)); err == nil {
		t.Fatal("Put with a failing recipe write succeeded")
	}
	faulty.FailPutsAfter(-1)
	if _, err := s.Recipe("bad"); !backend.IsNotFound(err) {
		t.Fatal("failed Put left its recipe behind")
	}
	scan, err := ScanStore(b)
	if err != nil {
		t.Fatal(err)
	}
	// Only "keep"'s single (repeated) chunk may remain.
	if len(scan.Chunks) != 1 {
		t.Fatalf("failed Put left %d chunks, want 1", len(scan.Chunks))
	}
	if got, err := s.Get("keep"); err != nil || !bytes.Equal(got, keep) {
		t.Fatalf("failed Put damaged other key: %v", err)
	}
}

func TestForSharesRefLock(t *testing.T) {
	b := blobstore.NewMem()
	if For(b) != For(b) {
		t.Fatal("For returned distinct stores for one blobstore")
	}
	if For(blobstore.NewMem()) == For(b) {
		t.Fatal("For shared a store across distinct blobstores")
	}
}

// TestStoreLivesAndDiesWithItsBlobStore: the blob store owns its CAS
// view, so nothing in this package keeps a dropped store — and, through
// it, every byte of its backend — reachable, and two blob stores opened
// over one backend share no pins, pending counts or cache.
func TestStoreLivesAndDiesWithItsBlobStore(t *testing.T) {
	collected := make(chan struct{})
	func() {
		// The finalizer sits on the backend: the two stores reference
		// each other, and finalizers inside a cycle never run.
		be := backend.NewMem()
		runtime.SetFinalizer(be, func(*backend.Mem) { close(collected) })
		s := For(blobstore.New(be, latency.CostModel{}, nil))
		s.EnableCache(1<<20, reg(t))
		data := bytes.Repeat([]byte{4, 2}, 300)
		if _, err := s.Put("k", data, 100, Hints{}, reg(t)); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Get("k"); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get: %v", err)
		}
	}()
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
		case <-time.After(10 * time.Millisecond):
			if i < 100 {
				continue
			}
			t.Fatal("a dropped blob store that was used through For is still reachable")
		}
		break
	}

	be := backend.NewMem()
	s1 := For(blobstore.New(be, latency.CostModel{}, nil))
	s2 := For(blobstore.New(be, latency.CostModel{}, nil))
	s1.EnableCache(1<<20, reg(t))
	s1.Pin("h")
	s1.pending["h"]++
	if s1 == s2 || len(s2.pinned) != 0 || len(s2.pending) != 0 || s2.ChunkCache() != nil {
		t.Fatal("two blob stores over one backend share CAS state")
	}
}

func TestMetricsRecorded(t *testing.T) {
	s, _ := newTestStore(t)
	r := obs.New()
	data := bytes.Repeat([]byte{4}, 3000)
	if _, err := s.Put("m1", data, 1000, Hints{}, r); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("m2", data, 1000, Hints{}, r); err != nil {
		t.Fatal(err)
	}
	if got := r.Counter(MetricChunksTotal).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricChunksTotal, got)
	}
	if got := r.Counter(MetricDedupBytesTotal).Value(); got != 2000+3000 {
		// m1 dedups its 2nd and 3rd identical chunks, m2 all 3000.
		t.Fatalf("%s = %d, want 5000", MetricDedupBytesTotal, got)
	}
	if got := r.Gauge(MetricDedupRatio).Value(); got <= 100 {
		t.Fatalf("%s = %d, want > 100", MetricDedupRatio, got)
	}
}
