package scrub

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// The scrub-vs-lifecycle races: a background scrubber stepping through
// the keyspace while saves re-add chunks (pending-put guard), releases
// drop them to zero (eager delete), GC sweeps, and pinned readers hold
// chunks mid-read. Run under -race via `make race-stress`. The
// invariants: committed sets always read back byte-identical, a clean
// store is never quarantined, and nothing deadlocks.

func TestStressScrubConcurrentLifecycle(t *testing.T) {
	ts := newTestStore()
	stable := ts.seed(t, 3)
	want := map[string][]byte{}
	for _, k := range stable {
		data, err := ts.cas.Get(k)
		if err != nil {
			t.Fatalf("baseline read %s: %v", k, err)
		}
		want[k] = data
	}
	// Churn content shares its tail with the stable sets, so the
	// save/release cycle constantly re-takes references on chunks the
	// scrubber is walking.
	shared := bytes.Repeat([]byte("shared-tail "), 2048)

	s := New(ts.blobs, ts.docs, Config{Registry: obs.New(), BatchKeys: 16})
	ctx := context.Background()
	const iters = 40
	var wg sync.WaitGroup
	wg.Add(4)
	errc := make(chan error, 4)
	go func() { // saver: put + release churn keys that share chunks
		defer wg.Done()
		for i := 0; i < iters; i++ {
			key := fmt.Sprintf("churn/%02d/params.bin", i%4)
			data := append(bytes.Repeat([]byte(fmt.Sprintf("churn-%02d ", i%8)), 1024), shared...)
			if _, err := ts.cas.Put(key, data, 4096, cas.Hints{}, nil); err != nil {
				errc <- fmt.Errorf("put %s: %w", key, err)
				return
			}
			if _, err := ts.cas.Delete(key); err != nil {
				errc <- fmt.Errorf("release %s: %w", key, err)
				return
			}
		}
	}()
	go func() { // GC sweeps
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := ts.cas.GC(nil); err != nil {
				errc <- fmt.Errorf("gc: %w", err)
				return
			}
		}
	}()
	go func() { // pinned readers over the stable sets
		defer wg.Done()
		for i := 0; i < iters*2; i++ {
			k := stable[i%len(stable)]
			data, err := ts.cas.Get(k)
			if err != nil {
				errc <- fmt.Errorf("read %s: %w", k, err)
				return
			}
			if !bytes.Equal(data, want[k]) {
				errc <- fmt.Errorf("read %s returned wrong bytes", k)
				return
			}
		}
	}()
	go func() { // scrubber steps continuously
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := s.Step(ctx); err != nil {
				errc <- fmt.Errorf("scrub step: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Nothing was corrupt, so nothing may have been quarantined.
	if q, err := ts.cas.QuarantinedChunks(); err != nil || len(q) != 0 {
		t.Fatalf("clean store quarantined chunks %v (err %v)", q, err)
	}
	for _, k := range stable {
		data, err := ts.cas.Get(k)
		if err != nil {
			t.Fatalf("final read %s: %v", k, err)
		}
		if !bytes.Equal(data, want[k]) {
			t.Fatalf("final read %s returned wrong bytes", k)
		}
	}
}

func TestStressScrubHealsUnderConcurrentReads(t *testing.T) {
	local, peer := newTestStore(), newTestStore()
	keys := local.seed(t, 3)
	peer.seed(t, 3)
	want := map[string][]byte{}
	for _, k := range keys {
		data, err := peer.cas.Get(k)
		if err != nil {
			t.Fatalf("peer read %s: %v", k, err)
		}
		want[k] = data
	}
	hash, _ := local.chunkOf(t, keys[0], 0)
	local.rot(t, hash)

	s := New(local.blobs, local.docs, Config{Registry: obs.New(), BatchKeys: 8,
		Fetcher: &peerFetcher{cas: peer.cas}})
	var wg sync.WaitGroup
	wg.Add(2)
	errc := make(chan error, 2)
	go func() { // readers: corrupt bytes must never be served
		defer wg.Done()
		for i := 0; i < 80; i++ {
			k := keys[i%len(keys)]
			data, err := local.cas.Get(k)
			if err != nil {
				// Fail-fast is the contract mid-heal: corruption may
				// surface as the CRC mismatch (pre-quarantine) or the
				// quarantined-chunk error (post), never as wrong bytes.
				if errors.Is(err, cas.ErrCorrupt) || errors.Is(err, blobstore.ErrChecksumMismatch) {
					continue
				}
				errc <- fmt.Errorf("read %s: %w", k, err)
				return
			}
			if !bytes.Equal(data, want[k]) {
				errc <- fmt.Errorf("read %s returned wrong bytes", k)
				return
			}
		}
	}()
	go func() { // scrubber hunts and heals concurrently
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if _, err := s.Step(context.Background()); err != nil {
				errc <- fmt.Errorf("scrub step: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// The rot may have been pinned at the moment the scrubber reached
	// it (guard skip); one quiet pass settles it.
	s.ResetCursor()
	if _, err := s.RunPass(context.Background()); err != nil {
		t.Fatalf("settling pass: %v", err)
	}
	for _, k := range keys {
		data, err := local.cas.Get(k)
		if err != nil {
			t.Fatalf("final read %s: %v", k, err)
		}
		if !bytes.Equal(data, want[k]) {
			t.Fatalf("final read %s not byte-identical", k)
		}
	}
	if q, _ := local.cas.QuarantinedChunks(); len(q) != 0 {
		t.Fatalf("quarantine not emptied: %v", q)
	}
}
