package cas

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

// opCounter counts puts, gets (whole and ranged) and size probes.
type opCounter struct {
	backend.Backend
	puts, gets, sizes atomic.Int64
}

func (c *opCounter) Put(key string, data []byte) error {
	c.puts.Add(1)
	return c.Backend.Put(key, data)
}

func (c *opCounter) Get(key string) ([]byte, error) {
	c.gets.Add(1)
	return c.Backend.Get(key)
}

func (c *opCounter) GetRange(key string, off, length int64) ([]byte, error) {
	c.gets.Add(1)
	return c.Backend.GetRange(key, off, length)
}

func (c *opCounter) Size(key string) (int64, error) {
	c.sizes.Add(1)
	return c.Backend.Size(key)
}

// take returns the counts since the last take as "puts/gets/sizes".
func (c *opCounter) take() string {
	return fmt.Sprintf("%d/%d/%d", c.puts.Swap(0), c.gets.Swap(0), c.sizes.Swap(0))
}

// TestDedupPutReleaseBackendOps pins the backend cost of a deduplicated
// save and of its release. A derived blob that changes 100 of 2000
// chunks writes those chunks and its recipe — each a blob plus its
// checksum manifest, with the blob store's one read of the old value —
// and probes every distinct chunk once; its release reads the recipe
// and sizes the chunks it frees. Chunk liveness costs no backend op.
func TestDedupPutReleaseBackendOps(t *testing.T) {
	const chunks, chunkSize = 2000, 256
	be := &opCounter{Backend: backend.NewMem()}
	s := For(blobstore.New(be, latency.CostModel{}, nil))
	base := make([]byte, chunks*chunkSize)
	rand.New(rand.NewSource(1)).Read(base)
	derived := bytes.Clone(base)
	for i := 0; i < chunks; i += 20 {
		derived[i*chunkSize] ^= 0xff
	}
	if _, err := s.Put("base", base, chunkSize, Hints{}, reg(t)); err != nil {
		t.Fatal(err)
	}
	be.take()

	res, err := s.Put("derived", derived, chunkSize, Hints{}, reg(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.NewChunks != chunks/20 {
		t.Fatalf("derived Put wrote %d chunks, want %d", res.NewChunks, chunks/20)
	}
	if got, want := be.take(), "202/101/2000"; got != want {
		t.Errorf("derived Put cost %s backend puts/gets/size probes, want %s", got, want)
	}

	freed, err := s.Delete("derived")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := be.take(), "0/2/101"; got != want {
		t.Errorf("release cost %s backend puts/gets/size probes, want %s", got, want)
	}
	if freed != 187626 {
		t.Errorf("release freed %d bytes, want 187626 (recipe plus 100 chunks)", freed)
	}
	if got, err := s.Get("base"); err != nil || !bytes.Equal(got, base) {
		t.Fatalf("release damaged the base blob: %v", err)
	}
}

// TestStressCASCensusSharedChunks races writers that save and release
// blobs sharing chunks against a GC loop and readers, then checks the
// census contract: it never falls below the recipes it counts, GC
// leaves exactly the chunks the surviving recipes list, and eager
// release alone keeps the census exact once GC stops racing saves.
func TestStressCASCensusSharedChunks(t *testing.T) {
	const chunkSize, perBlob = 128, 12
	palette := make([][]byte, 24)
	for p := range palette {
		palette[p] = bytes.Repeat([]byte{byte(p), byte(p * 7), 0xa5}, chunkSize/3+1)[:chunkSize]
	}
	// content builds a blob of palette chunks, so every two blobs are
	// likely to share some.
	content := func(seed int64) []byte {
		rng := rand.New(rand.NewSource(seed))
		var out []byte
		for i := 0; i < perBlob; i++ {
			out = append(out, palette[rng.Intn(len(palette))]...)
		}
		return out
	}
	fromPalette := func(data []byte) bool {
		for off := 0; off < len(data); off += chunkSize {
			ok := false
			for _, p := range palette {
				ok = ok || bytes.Equal(data[off:off+chunkSize], p)
			}
			if !ok {
				return false
			}
		}
		return len(data)%chunkSize == 0
	}

	b := blobstore.NewMem()
	s := For(b)
	s.EnableCache(8*chunkSize, reg(t))
	want := map[string][]byte{}
	for k := 0; k < 4; k++ {
		key := fmt.Sprintf("stable-%d", k)
		want[key] = content(int64(k))
		if _, err := s.Put(key, want[key], chunkSize, Hints{}, reg(t)); err != nil {
			t.Fatal(err)
		}
	}

	const writers, rounds = 3, 60
	var wg, bg sync.WaitGroup
	errs := make(chan error, 16)
	done := make(chan struct{})
	owned := make([]map[string][]byte, writers)
	for w := range owned {
		owned[w] = map[string][]byte{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("w%d-%d", w, i%4)
				if _, ok := owned[w][key]; ok {
					if _, err := s.Delete(key); err != nil {
						errs <- fmt.Errorf("Delete %s: %w", key, err)
						return
					}
					delete(owned[w], key)
					continue
				}
				data := content(int64(1000*w + i))
				if _, err := s.Put(key, data, chunkSize, Hints{}, reg(t)); err != nil {
					errs <- fmt.Errorf("Put %s: %w", key, err)
					return
				}
				owned[w][key] = data
			}
		}(w)
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := s.GC(reg(t)); err != nil {
				errs <- fmt.Errorf("GC: %w", err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		bg.Add(1)
		go func(r int) {
			defer bg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				stable := fmt.Sprintf("stable-%d", i%4)
				if got, err := s.Get(stable); err != nil || !bytes.Equal(got, want[stable]) {
					errs <- fmt.Errorf("reader %d: %s unreadable or wrong: %v", r, stable, err)
					return
				}
				// A churned key may be mid-release; whatever it returns
				// must still be whole palette chunks.
				if got, err := s.Get(fmt.Sprintf("w%d-%d", i%writers, i%4)); err == nil && !fromPalette(got) {
					errs <- fmt.Errorf("reader %d: wrong bytes for a churned key", r)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(done)
	bg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, m := range owned {
		for k, v := range m {
			want[k] = v
		}
	}

	recount := func() map[string]int {
		s.mu.Lock()
		defer s.mu.Unlock()
		fresh, _, err := s.countRecipes()
		if err != nil {
			t.Fatal(err)
		}
		return fresh
	}
	census := func() map[string]int {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := map[string]int{}
		for h, n := range s.census {
			out[h] = n
		}
		return out
	}
	// storedIsListed checks every surviving key reads back exactly and
	// the stored chunks are exactly those the surviving recipes list.
	storedIsListed := func(when string) {
		t.Helper()
		for k, v := range want {
			if got, err := s.Get(k); err != nil || !bytes.Equal(got, v) {
				t.Fatalf("%s: %s does not read back bit-exactly: %v", when, k, err)
			}
		}
		scan, err := ScanStore(b)
		if err != nil {
			t.Fatal(err)
		}
		listed := map[string]bool{}
		for _, r := range scan.Recipes {
			for _, c := range r.Chunks {
				listed[c.Hash] = true
			}
		}
		if len(scan.Recipes) != len(want) || len(scan.Chunks) != len(listed) {
			t.Fatalf("%s: %d recipes over %d chunks stored; want %d recipes over the %d chunks they list",
				when, len(scan.Recipes), len(scan.Chunks), len(want), len(listed))
		}
		for h := range listed {
			if _, ok := scan.Chunks[h]; !ok {
				t.Fatalf("%s: listed chunk %s is not stored", when, h)
			}
		}
	}

	// Never below the truth, whatever GC raced.
	got := census()
	for h, n := range recount() {
		if got[h] < n {
			t.Fatalf("census counts chunk %s %d times, %d recipes list it", h, got[h], n)
		}
	}
	if _, err := s.GC(reg(t)); err != nil {
		t.Fatal(err)
	}
	storedIsListed("after the final GC")

	// Without GC, eager release alone keeps the census exact.
	for k := range want {
		if !strings.HasPrefix(k, "w") {
			continue
		}
		if _, err := s.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(want, k)
	}
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("late-%d", i)
		want[key] = content(int64(5000 + i))
		if _, err := s.Put(key, want[key], chunkSize, Hints{}, reg(t)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Delete("stable-0"); err != nil {
		t.Fatal(err)
	}
	delete(want, "stable-0")
	storedIsListed("after sequential releases")
	if got, fresh := census(), recount(); fmt.Sprint(got) != fmt.Sprint(fresh) {
		t.Fatalf("census %v differs from a fresh recount %v", got, fresh)
	}
}
