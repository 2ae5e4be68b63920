package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/rng"
	"github.com/mmm-go/mmm/internal/server"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
	"github.com/mmm-go/mmm/internal/workload"
)

// remoteApproach is the approach the client-server workloads save with:
// the pull protocol serves deduplicated full snapshots.
const remoteApproach = "baseline"

// roundsPerSecond sizes the pool of lineages a client-server workload
// generates before timing: one per round, so every save brings bytes the
// server has not seen. It is set above what two callers reach here; a
// loop that uses the pool up ends early rather than repeating inputs.
const roundsPerSecond = 2.4

// partialsPerRound is the number of selective recoveries ending a round.
const partialsPerRound = 20

// endpoint is a real http.Server on a loopback port.
type endpoint struct {
	srv  *http.Server
	url  string
	done chan struct{} // closed when the accept loop has ended
}

func serve(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &endpoint{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(e.done)
		_ = e.srv.Serve(ln)
	}()
	return e, nil
}

func (e *endpoint) stop() {
	if e != nil {
		_ = e.srv.Close()
		<-e.done
	}
}

// node is one in-process management server over its own stores, behind
// an endpoint.
type node struct {
	*endpoint
	name   string
	stores *storeSet
	// oneAtATime makes a traced node serve requests serially; see
	// tracedHandler.
	oneAtATime atomic.Bool
}

// startNode opens fresh stores and serves them. With a recorder, the
// backends and the handler are wrapped.
func startNode(rc *runConfig, rec *recorder, name string, datasets *dataset.Registry) (*node, error) {
	stores := openStores(datasets, rec, name)
	n := &node{name: name, stores: stores}
	var h http.Handler = server.NewWithConfig(stores.Stores, obs.New(), server.Config{Dedup: true}, core.WithConcurrency(rc.callers))
	if rec != nil {
		h = &tracedHandler{inner: h, rec: rec, layer: "handler", node: name, oneAtATime: &n.oneAtATime}
		n.oneAtATime.Store(true)
	}
	var err error
	n.endpoint, err = serve(h)
	return n, err
}

func (n *node) stop() {
	n.endpoint.stop()
	n.stores.remove()
}

// callerLineages generates the lineages caller c saves, one per round.
func callerLineages(rc *runConfig, reg *dataset.Registry, c, rounds int) ([]*lineage, error) {
	out := make([]*lineage, rounds)
	for r := range out {
		seed := rng.New(rc.seed).Derive(fmt.Sprintf("caller/%d/round/%d", c, r)).Uint64()
		cfg := fleetConfig(rc.nRemote, seed, false)
		// A client-server run saves dozens of lineages, and training
		// them would triple its set-up. Perturbation changes the same
		// layers of the same models, which is all a full-snapshot save
		// and a chunk pull can see.
		cfg.Mode = workload.ModePerturb
		ln, err := genLineage(cfg, reg)
		if err != nil {
			return nil, err
		}
		out[r] = ln
	}
	return out, nil
}

// callerPools generates every caller's lineages, the callers side by
// side, with a metrics registry for each caller's client.
func callerPools(rc *runConfig, reg *dataset.Registry, perSecond float64) ([][]*lineage, []*obs.Registry, error) {
	pools := make([][]*lineage, rc.callers)
	regs := make([]*obs.Registry, rc.callers)
	errs := make([]error, rc.callers)
	wave(rc.callers, func(c int) {
		regs[c] = obs.New()
		pools[c], errs[c] = callerLineages(rc, reg, c, poolSize(rc, perSecond))
	})
	return pools, regs, errors.Join(errs...)
}

// poolSize is how many lineages each caller gets at the given rate of
// use: one for the warm-up round, the rest for the measured loop.
func poolSize(rc *runConfig, perSecond float64) int {
	if rc.maxIterations > 0 {
		return 1 + rc.maxIterations
	}
	return 1 + max(1, int(rc.seconds*perSecond))
}

// httpClient returns the client the callers share: one connection per
// caller, wrapped when rec is set.
func httpClient(rc *runConfig, rec *recorder) (*http.Client, *http.Transport) {
	base := &http.Transport{MaxIdleConns: rc.callers, MaxIdleConnsPerHost: rc.callers, MaxConnsPerHost: rc.callers}
	if rec == nil {
		return &http.Client{Transport: base}, base
	}
	return &http.Client{Transport: &tracedTransport{inner: base, rec: rec}}, base
}

// newPullCache returns an empty client-side chunk cache in memory, and
// the backend to release when the client is done with it.
func newPullCache() (*server.PullCache, *heldBackend) {
	held := &heldBackend{backend.NewMem()}
	return server.NewPullCache(blobstore.New(held, latency.CostModel{}, nil)), held
}

// remoteWorkload drives one management server with dedup on from
// closed-loop callers. Each round every caller takes a fresh lineage of
// its own through its life: save U1, cold pull it into an empty client
// cache, then for each U3 cycle save the derived set and re-pull it warm,
// then one cache-less multipart recovery and selective recoveries of
// U3-3.
//
// The callers move through a round in waves: all of them save, then all
// of them pull, and so on, each waiting for the others before the next
// step. An operation therefore always runs beside operations of its own
// kind. Left to drift, two callers on two cores put a 30 ms pull beside a
// 400 ms save on some runs and beside nothing on others, and the median
// of the run flips between the two.
type remoteWorkload struct {
	rc *runConfig

	reg       *dataset.Registry
	server    *node
	httpc     *http.Client
	transport *http.Transport
	lineages  [][]*lineage // per caller, per round
	regs      []*obs.Registry

	nextRound int
	logical   atomic.Int64 // parameter bytes of the sets the server holds
}

func (w *remoteWorkload) setup(rc *runConfig, rec *recorder) error {
	w.rc = rc
	w.reg = dataset.NewRegistry()
	var err error
	if w.lineages, w.regs, err = callerPools(rc, w.reg, roundsPerSecond); err != nil {
		return err
	}
	if w.server, err = startNode(rc, rec, "server", w.reg); err != nil {
		return err
	}
	w.httpc, w.transport = httpClient(rc, rec)
	return nil
}

// wave runs fn for every caller at once and waits for all of them. The
// heap is collected first, while no caller is timing anything.
func wave(callers int, fn func(c int)) {
	collectGarbage()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

func (w *remoteWorkload) loop(ctx context.Context, deadline time.Time, col *collector) {
	var last time.Duration
	for first := w.nextRound; w.nextRound < len(w.lineages[0]); w.nextRound++ {
		if w.nextRound > first && time.Now().Add(last).After(deadline) {
			return
		}
		start := time.Now()
		w.round(ctx, w.nextRound, col)
		last = time.Since(start)
	}
}

// remoteCaller is one caller's state within a round.
type remoteCaller struct {
	ln            *lineage
	plain, puller *server.Client
	base          string // the set saved last; "" once a save has failed
	failed        bool
}

// round takes every caller's lineage r through its life, wave by wave.
func (w *remoteWorkload) round(ctx context.Context, r int, col *collector) {
	callers := make([]*remoteCaller, len(w.lineages))
	for c := range callers {
		client := server.Client{BaseURL: w.server.url, HTTP: w.httpc, Reg: w.regs[c], PullWorkers: 1}
		puller := client
		var cache *heldBackend
		puller.Cache, cache = newPullCache()
		defer cache.release()
		callers[c] = &remoteCaller{ln: w.lineages[c][r], plain: &client, puller: &puller}
	}
	for k := 0; k <= cycles; k++ {
		wave(len(callers), func(c int) {
			s := callers[c]
			if s.failed {
				return // the rest of the chain needs the set that failed
			}
			req := s.ln.saveRequest(k, s.base)
			var res core.SaveResult
			ok := col.timed(ctx, saveKind(k), s.ln.setBytes(), func(ctx context.Context) (err error) {
				res, err = s.plain.Save(ctx, remoteApproach, req.Set, req.Base, req.Updates, req.Train)
				return err
			})
			s.base, s.failed = res.SetID, !ok
			if ok {
				w.logical.Add(s.ln.setBytes())
			}
		})
		// The puller's cache is empty before U1 and holds the previous
		// version before each derived set.
		wave(len(callers), func(c int) {
			s := callers[c]
			if s.failed {
				return
			}
			var got *core.ModelSet
			ok := col.timedAt(ctx, recoverKind(k), k, s.ln.setBytes(), func(ctx context.Context) (err error) {
				got, err = s.puller.Recover(ctx, remoteApproach, s.base)
				return err
			})
			if ok && !got.Equal(s.ln.versions[k]) {
				col.wrong("pull of " + s.base)
			}
		})
	}
	wave(len(callers), func(c int) {
		s := callers[c]
		if s.failed {
			return
		}
		var full *core.PartialRecovery
		ok := col.timed(ctx, other, s.ln.setBytes(), func(ctx context.Context) (err error) {
			full, _, err = s.plain.RecoverPartial(ctx, remoteApproach, s.base)
			return err
		})
		if last := s.ln.versions[cycles]; ok && !partialMatches(full, last, allModels(last)) {
			col.wrong("multipart recover of " + s.base)
		}
	})
	wave(len(callers), func(c int) {
		s := callers[c]
		if s.failed {
			return
		}
		last := s.ln.versions[cycles]
		for j := 0; j < partialsPerRound; j++ {
			indices := rng.New(w.rc.seed).Derive(fmt.Sprintf("select/%d/%d/%d", c, r, j)).Sample(last.Len(), min(selectCount, last.Len()))
			selectiveRecover(ctx, col, s.plain, s.base, last, indices)
		}
	})
}

// selectiveRecover times one selective recovery over HTTP and checks it.
func selectiveRecover(ctx context.Context, col *collector, client *server.Client, id string, want *core.ModelSet, indices []int) {
	var got *core.PartialRecovery
	ok := col.timed(ctx, partial, int64(len(indices))*int64(want.Arch.ParamBytes()), func(ctx context.Context) (err error) {
		got, err = client.RecoverModels(ctx, remoteApproach, id, indices)
		return err
	})
	if ok && !partialMatches(got, want, indices) {
		col.wrong("selective recover of " + id)
	}
}

func (w *remoteWorkload) storage(col *collector) (int64, int64) {
	return w.server.stores.physical(col, w.server.name), w.logical.Load()
}

func (w *remoteWorkload) inputs() (*lineage, string) {
	ln := w.lineages[0][0]
	return ln, ln.scheduleHash(fmt.Sprintf("rounds of %d partials, %d callers", partialsPerRound, len(w.lineages)))
}

func (w *remoteWorkload) close() {
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
	if w.server != nil {
		w.server.stop()
	}
}
