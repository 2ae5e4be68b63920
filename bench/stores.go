package main

import (
	"fmt"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/docstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

// Where the stores keep their bytes.
//
// Every store the workloads measure is a memory backend. On the directory
// backend, without fsync, a save's latency is the guest file system's, not
// the program's: on the sandbox this was written on, dedup-serve's derived
// save (some 600 chunk-sized files) had a run median of 383, 588 and 652 ms
// on three consecutive runs against 103 ms +- 1 % in memory, depending on
// what the ext4 journal and the hypervisor's page reclaim were doing. A
// metric that swings like that cannot hold a regression bound. The
// directory backend is measured on its own by the backend.dir_* per-layer
// metrics.
//
// flushPolicy is stated in every output document: it decides what a save
// latency means.
const flushPolicy = "backend.NewMem: writes are copies in process memory; nothing reaches a file system"

// storeSet is one document store and one blob store, with the raw
// backends beneath every integrity layer: sizes are taken there, and rot
// is planted there.
type storeSet struct {
	core.Stores
	docs, blobs *heldBackend
}

// heldBackend is a backend the benchmark can let go of. cas.For keeps
// every blob store it has seen reachable for the life of the process, and
// with it the store's backend; for a memory backend that is every byte
// ever saved. Releasing the backend from underneath leaves the registry
// holding an empty shell.
type heldBackend struct{ backend.Backend }

func (h *heldBackend) release() { h.Backend = nil }

// openStores opens fresh stores with the zero latency model. With a
// recorder, the backends the stores see are wrapped with its timers.
func openStores(reg *dataset.Registry, rec *recorder, node string) *storeSet {
	s := &storeSet{docs: &heldBackend{backend.NewMem()}, blobs: &heldBackend{backend.NewMem()}}
	var db, bb backend.Backend = s.docs, s.blobs
	if rec != nil {
		db, bb = rec.backend(db, node, "docs"), rec.backend(bb, node, "blobs")
	}
	s.Stores = core.Stores{
		Docs:     docstore.New(db, latency.CostModel{}, nil),
		Blobs:    blobstore.New(bb, latency.CostModel{}, nil),
		Datasets: reg,
	}
	return s
}

// remove lets go of the stores' bytes.
func (s *storeSet) remove() {
	if s == nil {
		return
	}
	s.docs.release()
	s.blobs.release()
}

// backendBytes sums the sizes of everything a backend holds.
func backendBytes(b backend.Backend) (int64, error) {
	keys, err := b.Keys()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, k := range keys {
		n, err := b.Size(k)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// physical returns the bytes the stores occupy, taken from the raw
// backends, after checking the blob side against the program's own
// accounting: a disagreement counts as a failure in col. The backends
// also hold what core.Du leaves out by design — checksum manifests and
// refcounts — so they may be larger than its figure, by a little.
func (s *storeSet) physical(col *collector, name string) int64 {
	docs, err := backendBytes(s.docs)
	if err != nil {
		col.fail("sizing " + name + ": " + err.Error())
		return 0
	}
	blobs, err := backendBytes(s.blobs)
	if err != nil {
		col.fail("sizing " + name + ": " + err.Error())
		return 0
	}
	du, err := core.Du(s.Stores)
	if err != nil {
		col.fail("core.Du on " + name + ": " + err.Error())
		return 0
	}
	if blobs < du.PhysicalBytes || float64(blobs) > 1.02*float64(du.PhysicalBytes) {
		col.fail(fmt.Sprintf("storage accounting on %s: the blob backend holds %d bytes, core.Du reports %d physical",
			name, blobs, du.PhysicalBytes))
	}
	return docs + blobs
}
