package docstore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

type testDoc struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

func TestInsertGetRoundTrip(t *testing.T) {
	s := NewMem()
	in := testDoc{Name: "set-1", Count: 5000}
	if err := s.Insert("metadata", "set-1", in); err != nil {
		t.Fatal(err)
	}
	var out testDoc
	if err := s.Get("metadata", "set-1", &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("Get = %+v, want %+v", out, in)
	}
}

func TestGetMissing(t *testing.T) {
	s := NewMem()
	var out testDoc
	if err := s.Get("metadata", "nope", &out); !backend.IsNotFound(err) {
		t.Fatalf("err = %v, want not-found", err)
	}
}

func TestExists(t *testing.T) {
	s := NewMem()
	ok, err := s.Exists("c", "x")
	if err != nil || ok {
		t.Fatalf("Exists on empty store = %v, %v", ok, err)
	}
	if err := s.Insert("c", "x", testDoc{}); err != nil {
		t.Fatal(err)
	}
	ok, err = s.Exists("c", "x")
	if err != nil || !ok {
		t.Fatalf("Exists after insert = %v, %v", ok, err)
	}
}

// TestExistsReadsNothing: VerifyStore and Import probe documents of up
// to a megabyte for existence; the probe must not fetch them.
func TestExistsReadsNothing(t *testing.T) {
	reg := obs.New()
	s := New(backend.Instrument(backend.NewMem(), reg, "docs"), latency.CostModel{}, nil)
	if err := s.Insert("c", "x", testDoc{Name: "a document with a body"}); err != nil {
		t.Fatal(err)
	}
	read := reg.Counter(backend.MetricReadBytes, obs.L("store", "docs"))
	if ok, err := s.Exists("c", "x"); err != nil || !ok {
		t.Fatalf("Exists on a stored document = %v, %v", ok, err)
	}
	if ok, err := s.Exists("c", "missing"); err != nil || ok {
		t.Fatalf("Exists on a missing document = %v, %v, want false, nil", ok, err)
	}
	if n := read.Value(); n != 0 {
		t.Fatalf("Exists read %d bytes from the backend, want 0", n)
	}
}

func TestDelete(t *testing.T) {
	s := NewMem()
	if err := s.Insert("c", "x", testDoc{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("c", "x"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Exists("c", "x"); ok {
		t.Fatal("document survives delete")
	}
}

func TestIDs(t *testing.T) {
	s := NewMem()
	for _, id := range []string{"b", "a", "c"} {
		if err := s.Insert("sets", id, testDoc{Name: id}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Insert("other", "z", testDoc{}); err != nil {
		t.Fatal(err)
	}
	ids, err := s.IDs("sets")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	if len(ids) != 3 {
		t.Fatalf("IDs = %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
}

func TestInvalidKeys(t *testing.T) {
	s := NewMem()
	if err := s.Insert("", "id", testDoc{}); err == nil {
		t.Error("empty collection accepted")
	}
	if err := s.Insert("coll", "", testDoc{}); err == nil {
		t.Error("empty id accepted")
	}
	if err := s.Insert("a/b", "id", testDoc{}); err == nil {
		t.Error("collection with '/' accepted")
	}
}

func TestUnmarshalableDoc(t *testing.T) {
	s := NewMem()
	if err := s.Insert("c", "x", make(chan int)); err == nil {
		t.Error("unmarshalable document accepted")
	}
}

func TestStats(t *testing.T) {
	s := NewMem()
	if err := s.Insert("c", "x", testDoc{Name: "n"}); err != nil {
		t.Fatal(err)
	}
	var out testDoc
	if err := s.Get("c", "x", &out); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.InsertOps != 1 || st.GetOps != 1 {
		t.Errorf("ops = %+v", st)
	}
	if st.BytesWritten == 0 || st.BytesRead != st.BytesWritten {
		t.Errorf("bytes = %+v", st)
	}
	s.ResetStats()
	if s.Stats() != (Stats{}) {
		t.Error("ResetStats did not zero counters")
	}
}

func TestLatencyCharged(t *testing.T) {
	var clock latency.Clock
	model := latency.CostModel{WriteOp: 3 * time.Millisecond, ReadOp: 7 * time.Millisecond}
	s := New(backend.NewMem(), model, &clock)
	if err := s.Insert("c", "x", testDoc{}); err != nil {
		t.Fatal(err)
	}
	if got := clock.Elapsed(); got != 3*time.Millisecond {
		t.Fatalf("after Insert clock = %v, want 3ms", got)
	}
	var out testDoc
	if err := s.Get("c", "x", &out); err != nil {
		t.Fatal(err)
	}
	if got := clock.Elapsed(); got != 10*time.Millisecond {
		t.Fatalf("after Get clock = %v, want 10ms", got)
	}
}

func TestFaultSurfaces(t *testing.T) {
	f := backend.NewFaulty(backend.NewMem())
	s := New(f, latency.CostModel{}, nil)
	f.FailNextPuts(1)
	if err := s.Insert("c", "x", testDoc{}); err == nil {
		t.Fatal("injected fault not surfaced")
	}
	if st := s.Stats(); st.InsertOps != 0 {
		t.Error("failed insert counted in stats")
	}
}

func TestConcurrentInsertGet(t *testing.T) {
	s := NewMem()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				id := fmt.Sprintf("doc-%d-%d", w, i)
				if err := s.Insert("c", id, testDoc{Name: id, Count: i}); err != nil {
					errs <- err
					return
				}
				var out testDoc
				if err := s.Get("c", id, &out); err != nil {
					errs <- err
					return
				}
				if out.Name != id {
					errs <- fmt.Errorf("read back %q, want %q", out.Name, id)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if st.InsertOps != 100 || st.GetOps != 100 {
		t.Fatalf("stats = %+v, want 100/100 ops", st)
	}
}
