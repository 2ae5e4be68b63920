package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"time"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/rng"
)

// localSpec is what distinguishes the four in-process workloads.
type localSpec struct {
	approach string // baseline, update or provenance
	// serving turns on the layers added after the reproduction: CAS
	// dedup, zlib, the chunk cache and per-model concurrency, on a
	// factory-cloned fleet.
	serving bool
	// chains is how often an iteration saves the chain, each time into
	// a fresh store; the last one is then recovered from. Zero means once.
	chains int
	// initialRecovers is how often an iteration recovers U1. Zero means
	// once.
	initialRecovers int
	// partials is the number of selective recoveries per iteration.
	partials int
	// hot, when positive, draws 80 % of the selective recoveries from
	// that many fixed models and 20 % from the whole set.
	hot int
}

// chunkCacheBytes is a fifth of one 2000-model set, so the hot models fit
// the cache and the whole set does not.
const chunkCacheBytes = 8 << 20

// localWorkload replays one lineage through one approach, in process. Every iteration is the same: a fresh store, save U1…U3-3,
// recover each, then selective recoveries from U3-3.
type localWorkload struct {
	spec localSpec
	rc   *runConfig
	rec  *recorder

	reg     *dataset.Registry
	ln      *lineage
	stores  *storeSet // the current iteration's
	hotSet  []int
	metrics *obs.Registry

	physical, logical int64
	cacheStats        [3]int64 // hits, misses, evictions summed over iterations
	iterations        int
	firstSchedule     []byte
}

func (w *localWorkload) setup(rc *runConfig, rec *recorder) error {
	w.rc, w.rec = rc, rec
	w.reg = dataset.NewRegistry()
	w.metrics = obs.New()
	ln, err := genLineage(fleetConfig(rc.nLocal, rc.seed, w.spec.serving), w.reg)
	if err != nil {
		return err
	}
	w.ln = ln
	if w.spec.hot > 0 {
		w.hotSet = rng.New(rc.seed).Derive("hot").Sample(rc.nLocal, min(w.spec.hot, rc.nLocal))
	}
	w.freshStore()
	return nil
}

func (w *localWorkload) freshStore() {
	w.stores = openStores(w.reg, w.rec, localNode)
}

func (w *localWorkload) newApproach() core.Approach {
	opts := []core.Option{core.WithMetrics(w.metrics), core.WithConcurrency(1)}
	if w.spec.serving {
		opts = []core.Option{core.WithMetrics(w.metrics), core.WithConcurrency(w.rc.callers),
			core.WithDedup(), core.WithCodec("zlib"), core.WithChunkCache(chunkCacheBytes)}
	}
	switch w.spec.approach {
	case "update":
		return core.NewUpdate(w.stores.Stores, opts...)
	case "provenance":
		return core.NewProvenance(w.stores.Stores, opts...)
	default:
		return core.NewBaseline(w.stores.Stores, opts...)
	}
}

// selection returns the model indices of selective recovery j of
// iteration it.
func (w *localWorkload) selection(it, j int) []int {
	r := rng.New(w.rc.seed).Derive(fmt.Sprintf("select/%d/%d", it, j))
	n := w.ln.versions[0].Len()
	k := min(selectCount, n)
	if len(w.hotSet) >= k && r.Float64() < 0.8 {
		picks := r.Sample(len(w.hotSet), k)
		for i, p := range picks {
			picks[i] = w.hotSet[p]
		}
		return picks
	}
	return r.Sample(n, k)
}

func (w *localWorkload) loop(ctx context.Context, deadline time.Time, col *collector) {
	var last time.Duration
	for it := 0; ; it++ {
		if it > 0 && (time.Now().Add(last).After(deadline) || it == w.rc.maxIterations) {
			return
		}
		start := time.Now()
		if w.stores == nil { // set-up opened the first
			w.freshStore()
		}
		w.iterate(ctx, w.iterations, col)
		w.iterations++
		w.stores.remove()
		w.stores = nil
		collectGarbage()
		last = time.Since(start)
	}
}

func (w *localWorkload) iterate(ctx context.Context, it int, col *collector) {
	a := w.newApproach()
	setBytes := w.ln.setBytes()
	sched := sha256.New()

	var ids []string
	for c := 0; c < max(1, w.spec.chains); c++ {
		if c > 0 {
			w.stores.remove()
			w.freshStore()
			a = w.newApproach()
		}
		ids = ids[:0]
		base := ""
		for k := range w.ln.versions {
			req := w.ln.saveRequest(k, base)
			var res core.SaveResult
			ok := col.timed(ctx, saveKind(k), setBytes, func(ctx context.Context) (err error) {
				res, err = a.SaveContext(ctx, req)
				return err
			})
			if !ok {
				return // the rest of the chain needs this set
			}
			base = res.SetID
			ids = append(ids, res.SetID)
			fmt.Fprintf(sched, "save %d\n", k)
		}
	}

	for k, id := range ids {
		for n := 0; n == 0 || (k == 0 && n < w.spec.initialRecovers); n++ {
			// Provenance recovery regenerates its training data each
			// time, as a recovery in a fresh process would.
			w.reg.DropCache()
			var got *core.ModelSet
			ok := col.timedAt(ctx, recoverKind(k), k, setBytes, func(ctx context.Context) (err error) {
				got, err = a.RecoverContext(ctx, id)
				return err
			})
			if ok && !got.Equal(w.ln.versions[k]) {
				col.wrong("recover of " + id)
			}
			fmt.Fprintf(sched, "recover %d\n", k)
		}
	}

	last := len(ids) - 1
	pr := a.(core.PartialRecoverer)
	perModel := int64(w.ln.versions[0].Arch.ParamBytes())
	type result struct {
		indices []int
		got     *core.PartialRecovery
	}
	results := make([]result, 0, w.spec.partials)
	for j := 0; j < w.spec.partials; j++ {
		indices := w.selection(it, j)
		var got *core.PartialRecovery
		ok := col.timed(ctx, partial, perModel*int64(len(indices)), func(ctx context.Context) (err error) {
			got, err = pr.RecoverModelsContext(ctx, ids[last], indices)
			return err
		})
		if ok {
			results = append(results, result{indices, got})
		}
		fmt.Fprintf(sched, "partial %v\n", indices)
	}
	for _, r := range results {
		if !partialMatches(r.got, w.ln.versions[last], r.indices) {
			col.wrong("selective recover")
		}
	}
	if it == 0 {
		w.firstSchedule = sched.Sum(nil)
	}

	w.physical = w.stores.physical(col, "the store")
	w.logical = setBytes * int64(len(ids))
	if w.spec.serving {
		w.pruneAndCollect(a, ids, col)
	}
}

// pruneAndCollect drops the oldest set and collects unreferenced chunks,
// so refcounts and GC run once per iteration, then checks that what
// stays is still recoverable.
func (w *localWorkload) pruneAndCollect(a core.Approach, ids []string, col *collector) {
	if st, ok := cacheStats(w.stores.Stores); ok {
		w.cacheStats[0] += st.Hits
		w.cacheStats[1] += st.Misses
		w.cacheStats[2] += st.Evictions
	}
	if _, err := a.(core.Pruner).Prune(ids[1:]); err != nil {
		col.fail("prune: " + err.Error())
		return
	}
	if _, err := core.GCStore(w.stores.Stores, w.metrics); err != nil {
		col.fail("gc: " + err.Error())
		return
	}
	last := len(ids) - 1
	got, err := a.Recover(ids[last])
	if err != nil || !got.Equal(w.ln.versions[last]) {
		col.wrong("recover after prune and gc")
	}
}

// storage returns what the last iteration measured, already checked
// against core.Du.
func (w *localWorkload) storage(*collector) (int64, int64) { return w.physical, w.logical }

func (w *localWorkload) inputs() (*lineage, string) {
	return w.ln, w.ln.scheduleHash(string(w.firstSchedule))
}

func (w *localWorkload) close() { w.stores.remove() }
