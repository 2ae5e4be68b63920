package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/mmm-go/mmm/internal/cluster"
	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/rng"
	"github.com/mmm-go/mmm/internal/scrub"
	"github.com/mmm-go/mmm/internal/server"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// This file holds each workload's layerMetrics: the per-layer numbers of
// the layers only that workload runs, taken after its traced loop.

func (w *localWorkload) callers() int { return 1 }

func (w *localWorkload) layerMetrics(ctx context.Context, rec *recorder, out map[string]float64) error {
	if !w.spec.serving {
		return nil
	}
	hits, misses, evictions := float64(w.cacheStats[0]), float64(w.cacheStats[1]), float64(w.cacheStats[2])
	out["cache.hit_ratio"] = ratio(hits, hits+misses)
	out["cache.evictions"] = ratio(evictions, float64(w.iterations))
	return w.driveScrub(ctx, rec, out)
}

const (
	// rotEvery plants rot in every rotEvery-th chunk of the scrubbed store.
	rotEvery = 8
	// scrubRate is the background scrub's budget while foreground
	// selective recoveries are timed beside it.
	scrubRate = 20 << 20
)

// storeFetcher serves chunks out of a second, healthy store — the peer
// the scrubber repairs from — and counts the bytes it served.
type storeFetcher struct {
	store *cas.Store
	bytes int64
}

func (f *storeFetcher) FetchChunk(_ context.Context, hash string, size int64) ([]byte, error) {
	data, err := f.store.GetChunk(hash, size)
	f.bytes += int64(len(data))
	return data, err
}

// driveScrub saves the first models of the chain into a store and an
// identical peer, then times one unthrottled scrub pass, selective
// recoveries with and without a paced scrub running beside them, and a
// pass that heals planted rot from the peer.
func (w *localWorkload) driveScrub(ctx context.Context, rec *recorder, out map[string]float64) error {
	m := min(driveModels, w.ln.versions[0].Len())
	sets := make([]*core.ModelSet, len(w.ln.versions))
	for k, v := range w.ln.versions {
		sets[k] = &core.ModelSet{Arch: v.Arch, Models: v.Models[:m]}
	}
	// saved opens a store and saves the chain into it.
	saved := func() (*storeSet, core.Approach, []string, error) {
		st := openStores(w.reg, nil, localNode)
		a := core.NewBaseline(st.Stores, core.WithMetrics(w.metrics), core.WithConcurrency(w.rc.callers),
			core.WithDedup(), core.WithCodec("zlib"), core.WithChunkCache(chunkCacheBytes))
		var ids []string
		for _, set := range sets {
			res, err := a.SaveContext(ctx, core.SaveRequest{Set: set})
			if err != nil {
				st.remove()
				return nil, nil, nil, err
			}
			ids = append(ids, res.SetID)
		}
		return st, a, ids, nil
	}
	st, a, ids, err := saved()
	if err != nil {
		return err
	}
	defer st.remove()
	peer, _, _, err := saved()
	if err != nil {
		return err
	}
	defer peer.remove()

	clean := scrub.New(st.Blobs, st.Docs, scrub.Config{Registry: obs.New()})
	rep, err := clean.RunPass(ctx)
	if err != nil {
		return fmt.Errorf("scrub pass: %w", err)
	}
	if len(rep.Findings) > 0 {
		return fmt.Errorf("scrub pass found %d problems in a healthy store", len(rep.Findings))
	}
	out["scrub.pass_mb_s"] = mbPerSec(int(rep.BytesVerified), rep.Elapsed)

	last := len(ids) - 1
	pr := a.(core.PartialRecoverer)
	selective := func() (float64, error) {
		r := rng.New(w.rc.seed).Derive("scrub/select")
		samples := make([]float64, rangeReads)
		for i := range samples {
			indices := r.Sample(m, min(selectCount, m))
			start := time.Now()
			got, err := pr.RecoverModelsContext(ctx, ids[last], indices)
			samples[i] = time.Since(start).Seconds() * 1e3
			if err != nil {
				return 0, err
			}
			if !partialMatches(got, sets[last], indices) {
				return 0, fmt.Errorf("selective recover beside the scrubber returned wrong bytes")
			}
		}
		return summarize(samples).P90, nil
	}
	if _, err := selective(); err != nil { // fills the chunk cache
		return err
	}
	alone, err := selective()
	if err != nil {
		return err
	}
	paced := scrub.New(st.Blobs, st.Docs, scrub.Config{Registry: obs.New(), RateBytesPerSec: scrubRate})
	bg, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for bg.Err() == nil {
			paced.ResetCursor()
			_, _ = paced.RunPass(bg)
		}
	}()
	beside, err := selective()
	cancel()
	<-done
	if err != nil {
		return err
	}
	out["scrub.fg_partial_p90_ratio"] = ratio(beside, alone)

	// Rot goes in underneath every integrity layer, through the raw
	// backend.
	keys, err := st.blobs.Keys()
	if err != nil {
		return err
	}
	sort.Strings(keys)
	rotted, chunk := 0, 0
	for _, key := range keys {
		if hash, ok := cas.ChunkHash(key); !ok || key != cas.ChunkKey(hash) {
			continue // not a chunk body (ChunkHash also accepts refcount keys)
		}
		if chunk++; chunk%rotEvery != 0 {
			continue
		}
		body, err := st.blobs.Get(key)
		if err != nil {
			return err
		}
		body[len(body)/2] ^= 0xff
		if err := st.blobs.Put(key, body); err != nil {
			return err
		}
		rotted++
	}
	fetcher := &storeFetcher{store: cas.For(peer.Blobs)}
	healer := scrub.New(st.Blobs, st.Docs, scrub.Config{Registry: obs.New(),
		Fetcher: &tracedFetcher{inner: fetcher, rec: rec}})
	healer.ResetCursor()
	rep, err = healer.RunPass(ctx)
	if err != nil {
		return fmt.Errorf("heal pass: %w", err)
	}
	if rep.Repaired != rotted || rep.Errors() != 0 {
		return fmt.Errorf("heal pass repaired %d of %d rotted chunks, %d left", rep.Repaired, rotted, rep.Errors())
	}
	out["scrub.heal_mb_s"] = mbPerSec(int(fetcher.bytes), rep.Elapsed)
	for k, id := range ids {
		got, err := a.RecoverContext(ctx, id)
		if err != nil || !got.Equal(sets[k]) {
			return fmt.Errorf("set %s is not byte-identical after the heal (%v)", id, err)
		}
	}
	return nil
}

func (w *remoteWorkload) callers() int { return w.rc.callers }

func (w *remoteWorkload) layerMetrics(_ context.Context, _ *recorder, out map[string]float64) error {
	clientCounters(w.regs, out)
	return nil
}

// clientCounters reads the pull client's own counters.
func clientCounters(regs []*obs.Registry, out map[string]float64) {
	var hits, fetched, retries float64
	for _, reg := range regs {
		hits += float64(reg.Counter(server.MetricPullCacheHits).Value())
		fetched += float64(reg.Counter(server.MetricPullChunksFetched).Value())
		retries += float64(reg.Counter(server.MetricClientRetries).Value())
	}
	out["server.pull_cache_hit_ratio"] = ratio(hits, hits+fetched)
	out["server.retries"] = retries
}

func (w *clusterWorkload) callers() int { return w.rc.callers }

// layerMetrics adds a fourth member and times the rebalance that gives
// it its share of the sets.
func (w *clusterWorkload) layerMetrics(ctx context.Context, _ *recorder, out map[string]float64) error {
	clientCounters(w.regs, out)
	out["cluster.read_failovers"] = float64(w.routerReg.Counter(cluster.MetricRouterFailovers).Value())
	// The rebalance pulls with several workers per destination; let the
	// nodes serve them side by side as they would untraced.
	for _, n := range w.nodes {
		n.oneAtATime.Store(false)
	}
	if err := w.addNode(); err != nil {
		return err
	}
	w.nodes[len(w.nodes)-1].oneAtATime.Store(false)
	w.router.Probe(ctx)
	start := time.Now()
	rep, err := w.router.Rebalance(ctx)
	if err != nil {
		return fmt.Errorf("rebalance: %w", err)
	}
	elapsed := time.Since(start)
	if rep.Unplaceable > 0 || len(rep.Errors) > 0 {
		return fmt.Errorf("rebalance incomplete: %d unplaceable, errors %v", rep.Unplaceable, rep.Errors)
	}
	out["cluster.rebalance_mb_s"] = mbPerSec(int(rep.BytesFetched), elapsed)
	out["cluster.rebalance_bytes_ratio"] = ratio(float64(rep.BytesFetched), float64(rep.Synced)*float64(w.lineages[0][0].setBytes()))
	return nil
}
