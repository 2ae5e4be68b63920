package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/mmm-go/mmm/internal/cluster"
	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/rng"
	"github.com/mmm-go/mmm/internal/server"
)

const (
	clusterNodes    = 3
	clusterReplicas = 2
	// periodsPerSecond sizes the lineage pool like roundsPerSecond does:
	// a period takes every caller through one lineage.
	periodsPerSecond = 1.2
)

// stepKind is what a caller does in one step of cluster-mixed.
type stepKind int

const (
	stepSave stepKind = iota
	stepRecover
	stepSelect
)

// period is the mix: one lineage's life in twelve steps. Four saves (the
// initial set, then its three cycles), each followed by a full recover
// that reads the set back; then two selective steps, each followed by a
// full recover of any set the caller has saved. Caller c starts c steps
// in, so a caller's save or selective step always runs beside the other
// caller's full recover.
//
// The order is fixed, not shuffled by the seed, so that what each kind of
// recover runs beside is the same in every period of every run: a caller's
// recovers cost 80 ms beside a save and 58 ms beside a selective step, and
// when the seed decided which were which, the share of derived-set
// recovers in each group moved from run to run, and on some seeds their
// median sat in the gap between the two.
var period = [...]stepKind{
	stepSave, stepRecover, stepSave, stepRecover, stepSave, stepRecover, stepSave, stepRecover,
	stepSelect, stepRecover, stepSelect, stepRecover,
}

// selectiveBurst is how many groups of models one selective step recovers:
// the analyst after an accident pulls several, and a step of one would
// leave the 90th percentile with too few samples beyond it.
const selectiveBurst = 8

// savedSet is a set the cluster acknowledged, with what it must return.
type savedSet struct {
	id      string
	want    *core.ModelSet
	version int
}

// clusterWorkload drives three nodes behind the router (R = 2, majority
// quorum, no injected faults) with closed-loop callers that step together
// through different operations: in every step one caller writes or
// recovers selected models while the other recovers a whole set, so reads
// always run beside quorum writes on the same nodes, and what either costs
// the other shows in its latency.
//
// The callers wait for each other after every step because what an
// operation runs beside must be the same from run to run for its median
// to hold a bound. Left to run free (each caller its own shuffled mix, a
// barrier every ten steps) a save ran beside a recover, another save or
// nothing as the callers drifted, the median save sat where that mixture
// thins out, and over ten seeds it spread by 7 to 9 % of itself;
// STEADINESS.md has the runs.
type clusterWorkload struct {
	rc  *runConfig
	rec *recorder

	reg       *dataset.Registry
	nodes     []*node
	router    *cluster.Router
	routerReg *obs.Registry
	front     *endpoint // the router's
	httpc     *http.Client
	transport *http.Transport
	lineages  [][]*lineage // per caller
	regs      []*obs.Registry

	clients  []*clusterCaller
	periods  int
	logical  atomic.Int64 // parameter bytes of the sets the cluster holds
	schedule []byte       // digest of the first period's steps
}

func (w *clusterWorkload) setup(rc *runConfig, rec *recorder) error {
	w.rc, w.rec = rc, rec
	w.reg = dataset.NewRegistry()
	var err error
	if w.lineages, w.regs, err = callerPools(rc, w.reg, periodsPerSecond); err != nil {
		return err
	}
	w.routerReg = obs.New()
	w.router = cluster.NewRouter(w.routerReg, cluster.RouterConfig{Replicas: clusterReplicas})
	for i := 0; i < clusterNodes; i++ {
		if err := w.addNode(); err != nil {
			return err
		}
	}
	if _, err := w.router.CheckMembers(context.Background()); err != nil {
		return fmt.Errorf("version preflight: %w", err)
	}
	var h http.Handler = w.router
	if rec != nil {
		h = &tracedHandler{inner: h, rec: rec, layer: "router", node: "router"}
	}
	if w.front, err = serve(h); err != nil {
		return err
	}
	w.httpc, w.transport = httpClient(rc, rec)
	for c := range w.lineages {
		w.clients = append(w.clients, &clusterCaller{
			client: &server.Client{BaseURL: w.front.url, HTTP: w.httpc, Reg: w.regs[c], PullWorkers: 1},
			r:      rng.New(rc.seed).Derive(fmt.Sprintf("caller/%d", c)),
		})
	}
	return nil
}

// addNode starts one more node and makes it a member.
func (w *clusterWorkload) addNode() error {
	n, err := startNode(w.rc, w.rec, fmt.Sprintf("node-%c", 'a'+len(w.nodes)), w.reg)
	if err != nil {
		return err
	}
	w.nodes = append(w.nodes, n)
	return w.router.AddMember(n.name, n.url)
}

// clusterCaller is one caller's position in the period's lineage and what
// it has saved so far.
type clusterCaller struct {
	client   *server.Client
	r        *rng.RNG // picks sets and models
	lineage  int
	version  int
	base     string
	saved    []savedSet
	readBack bool // the last step saved a set; a recover reads it back
}

// loop runs periods until the deadline: every caller takes one lineage
// of its own through its life.
func (w *clusterWorkload) loop(ctx context.Context, deadline time.Time, col *collector) {
	var last time.Duration
	for first := w.periods; w.periods < len(w.lineages[0]); w.periods++ {
		if w.periods > first && (time.Now().Add(last).After(deadline) || w.periods-first == w.rc.maxIterations) {
			return
		}
		start := time.Now()
		sched := sha256.New()
		for _, s := range w.clients {
			s.lineage, s.version, s.base = w.periods, 0, ""
		}
		for k := range period {
			lines := make([]string, len(w.clients))
			wave(len(w.clients), func(c int) {
				lines[c] = w.step(ctx, c, period[(k+c)%len(period)], col)
			})
			fmt.Fprintln(sched, lines)
		}
		if w.schedule == nil {
			w.schedule = sched.Sum(nil)
		}
		last = time.Since(start)
	}
}

// step has caller c do one step and returns a line describing what it
// was asked to do.
func (w *clusterWorkload) step(ctx context.Context, c int, kind stepKind, col *collector) string {
	s := w.clients[c]
	readBack := s.readBack
	s.readBack = false
	if kind == stepSave {
		if s.version > 0 && s.base == "" {
			return "" // an earlier save of the lineage failed; nothing to derive from
		}
		s.readBack = true
		return w.save(ctx, c, s, col)
	}
	if len(s.saved) == 0 {
		return "" // nothing to read back yet, or its saves failed
	}
	// A recover that follows the caller's own save reads that set back,
	// so even one period recovers initial and derived sets; any other
	// reads any set the caller has saved.
	n := len(s.saved) - 1
	if !readBack {
		n = s.r.Intn(len(s.saved))
	}
	set := s.saved[n]
	if kind == stepRecover {
		var got *core.ModelSet
		ok := col.timedAt(ctx, recoverKind(set.version), set.version, w.lineages[c][0].setBytes(),
			func(ctx context.Context) (err error) {
				got, err = s.client.Recover(ctx, remoteApproach, set.id)
				return err
			})
		if ok && !got.Equal(set.want) {
			col.wrong("recover of " + set.id)
		}
		return fmt.Sprintf("recover %d", n)
	}
	line := fmt.Sprintf("select %d", n)
	for j := 0; j < selectiveBurst; j++ {
		indices := s.r.Sample(set.want.Len(), min(selectCount, set.want.Len()))
		line += fmt.Sprint(indices)
		selectiveRecover(ctx, col, s.client, set.id, set.want, indices)
	}
	return line
}

// save saves the next version of the caller's lineage through the router,
// under an idempotency key that also identifies the request in the trace.
// A failed save leaves the lineage without a base, and its later saves
// are skipped.
func (w *clusterWorkload) save(ctx context.Context, c int, s *clusterCaller, col *collector) string {
	ln := w.lineages[c][s.lineage]
	req := ln.saveRequest(s.version, s.base)
	var res core.SaveResult
	ok := col.timed(ctx, saveKind(s.version), ln.setBytes(), func(ctx context.Context) (err error) {
		res, err = s.client.SaveWithKey(ctx, remoteApproach, fmt.Sprintf("bench-%d-%d-%d", c, s.lineage, s.version),
			req.Set, req.Base, req.Updates, req.Train)
		return err
	})
	if ok {
		s.saved = append(s.saved, savedSet{res.SetID, req.Set, s.version})
		w.logical.Add(ln.setBytes())
	}
	s.version, s.base = s.version+1, res.SetID
	return fmt.Sprintf("save %d", s.version-1)
}

// storage sums the nodes' stores. Every period saves whole lineages, so
// the ratio does not depend on where the deadline fell.
func (w *clusterWorkload) storage(col *collector) (int64, int64) {
	var physical int64
	for _, n := range w.nodes {
		physical += n.stores.physical(col, n.name)
	}
	return physical, w.logical.Load()
}

func (w *clusterWorkload) inputs() (*lineage, string) {
	ln := w.lineages[0][0]
	return ln, ln.scheduleHash(string(w.schedule))
}

func (w *clusterWorkload) close() {
	if w.transport != nil {
		w.transport.CloseIdleConnections()
	}
	w.front.stop()
	for _, n := range w.nodes {
		n.stop()
	}
}
