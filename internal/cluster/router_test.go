package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/netchaos"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/server"
)

// testNode is one in-process mmserve node behind a NodeGate, so tests
// can kill or partition it mid-workload.
type testNode struct {
	name   string
	url    string
	stores core.Stores
	gate   *netchaos.NodeGate
	client *server.Client
}

// testCluster is N nodes plus a router, all over real HTTP.
type testCluster struct {
	rt     *Router
	reg    *obs.Registry
	client *server.Client // pointed at the router
	url    string
	nodes  []*testNode
}

func startNode(t *testing.T, name string, cfg server.Config) *testNode {
	t.Helper()
	stores := core.NewMemStores()
	api := server.NewWithConfig(stores, obs.New(), cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := netchaos.NewNodeGate(ln)
	hs := &http.Server{Handler: api}
	go func() { _ = hs.Serve(gate) }()
	t.Cleanup(func() { _ = hs.Close() })
	url := "http://" + ln.Addr().String()
	return &testNode{
		name:   name,
		url:    url,
		stores: stores,
		gate:   gate,
		client: &server.Client{BaseURL: url},
	}
}

// newCluster builds n nodes with dedup on (the cluster's home
// configuration: rebalances move only missing chunks) behind a router
// with replication factor r.
func newCluster(t *testing.T, n, r int, cfg RouterConfig) *testCluster {
	t.Helper()
	cfg.Replicas = r
	reg := obs.New()
	rt := NewRouter(reg, cfg)
	tc := &testCluster{rt: rt, reg: reg}
	for i := 0; i < n; i++ {
		node := startNode(t, fmt.Sprintf("node-%c", 'a'+i), server.Config{Dedup: true})
		tc.nodes = append(tc.nodes, node)
		if err := rt.AddMember(node.name, node.url); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.CheckMembers(context.Background()); err != nil {
		t.Fatalf("version preflight: %v", err)
	}
	ts := httptest.NewServer(rt)
	t.Cleanup(ts.Close)
	tc.url = ts.URL
	tc.client = &server.Client{BaseURL: ts.URL}
	return tc
}

func clusterSet(t *testing.T, seed uint64) *core.ModelSet {
	t.Helper()
	set, err := core.NewModelSet(nn.FFNN("cluster-test", 8, []int{12}, 2), 6, seed)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// holders returns which nodes hold a set, by direct (router-bypassing)
// listing.
func holders(t *testing.T, tc *testCluster, approach, setID string) []string {
	t.Helper()
	var out []string
	for _, n := range tc.nodes {
		if !tc.rt.Table().Usable(n.name) {
			continue
		}
		ids, err := n.client.List(context.Background(), approach)
		if err != nil {
			t.Fatalf("listing %s: %v", n.name, err)
		}
		for _, id := range ids {
			if id == setID {
				out = append(out, n.name)
			}
		}
	}
	return out
}

// TestClusterSaveReplicatesAndSurvivesNodeKill is the headline
// guarantee: every set lands on R nodes, killing any one node
// mid-workload leaves every set byte-identically recoverable through
// the router, and a keyed save that missed quorum while the dead node
// was still listed lands exactly once when retried after its removal.
func TestClusterSaveReplicatesAndSurvivesNodeKill(t *testing.T) {
	ctx := context.Background()
	tc := newCluster(t, 3, 2, RouterConfig{})

	const sets = 12
	saved := map[string]*core.ModelSet{}
	for i := 0; i < sets; i++ {
		set := clusterSet(t, uint64(100+i))
		res, err := tc.client.Save(ctx, "baseline", set, "", nil, nil)
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		saved[res.SetID] = set
	}

	// Replication invariant: every set is on exactly R=2 nodes.
	killedOwners := map[string]bool{}
	for id := range saved {
		h := holders(t, tc, "baseline", id)
		if len(h) != 2 {
			t.Fatalf("set %s on %v, want exactly 2 nodes", id, h)
		}
		for _, name := range h {
			if name == tc.nodes[1].name {
				killedOwners[id] = true
			}
		}
	}
	if len(killedOwners) == 0 {
		t.Fatal("node-b owns nothing; test would not exercise failover")
	}

	// Kill node-b: listener closed, live connections severed.
	tc.nodes[1].gate.Kill()
	tc.rt.Probe(ctx)
	if tc.rt.Table().Usable(tc.nodes[1].name) {
		t.Fatal("killed node still marked usable after probe")
	}

	// Every set — including those node-b owned — recovers through the
	// router byte-identically from the surviving replica.
	for id, want := range saved {
		got, err := tc.client.Recover(ctx, "baseline", id)
		if err != nil {
			t.Fatalf("recover %s after kill: %v", id, err)
		}
		if !want.Equal(got) {
			t.Fatalf("set %s differs after node kill", id)
		}
	}

	// A keyed save owned by the dead-but-listed node-b misses quorum:
	// 503 with Retry-After, sent once so the status is observable.
	victim := tc.nodes[1].name
	key, setID := "", ""
	for i := 0; setID == ""; i++ {
		k := fmt.Sprintf("quorum-save-%d", i)
		for _, m := range tc.rt.Table().Owners(PlacementKey(MintID(k, ""))) {
			if m.Name == victim {
				key, setID = k, MintID(k, "")
			}
		}
	}
	quorumSet := clusterSet(t, 777)
	rec := &lastResponse{}
	once := &server.Client{BaseURL: tc.url, HTTP: &http.Client{Transport: rec},
		Retry: &server.RetryPolicy{MaxAttempts: 1}}
	if _, err := once.SaveWithKey(ctx, "baseline", key, quorumSet, "", nil, nil); err == nil {
		t.Fatal("keyed save with a dead owner reached quorum")
	}
	if rec.status != http.StatusServiceUnavailable || rec.retryAfter == "" {
		t.Fatalf("missed quorum answered %d, Retry-After %q; want 503 with Retry-After",
			rec.status, rec.retryAfter)
	}

	// Operator removes the dead node. The retry under the same key
	// lands exactly once: the minted ID, on R live nodes, byte-identical
	// on each, and no node holds a second set for that save.
	tc.rt.Table().Remove(victim)
	res, err := tc.client.SaveWithKey(ctx, "baseline", key, quorumSet, "", nil, nil)
	if err != nil {
		t.Fatalf("retrying the keyed save after membership fix: %v", err)
	}
	if res.SetID != setID {
		t.Fatalf("retry landed as %s, want the minted %s", res.SetID, setID)
	}
	holding := 0
	for _, n := range tc.nodes {
		if !tc.rt.Table().Usable(n.name) {
			continue
		}
		ids, err := n.client.List(ctx, "baseline")
		if err != nil {
			t.Fatalf("listing %s: %v", n.name, err)
		}
		for _, id := range ids {
			switch {
			case id == setID:
				holding++
				got, err := n.client.Recover(ctx, "baseline", setID)
				if err != nil || !quorumSet.Equal(got) {
					t.Fatalf("retried set on %s not byte-identical (err=%v)", n.name, err)
				}
			case saved[id] == nil:
				t.Fatalf("%s holds %s, a second set for the retried save", n.name, id)
			}
		}
	}
	if holding != 2 {
		t.Fatalf("retried set %s on %d live nodes, want exactly 2", setID, holding)
	}
	saved[setID] = quorumSet

	// Rebalance restores R=2 on the survivors.
	rep, err := tc.rt.Rebalance(ctx)
	if err != nil {
		t.Fatalf("rebalance: %v", err)
	}
	if rep.Unplaceable != 0 {
		t.Fatalf("rebalance left %d sets unplaceable: %+v", rep.Unplaceable, rep.Errors)
	}
	if rep.Synced == 0 {
		t.Fatal("rebalance synced nothing, but node-b held replicas")
	}
	for id, want := range saved {
		h := holders(t, tc, "baseline", id)
		if len(h) != 2 {
			t.Fatalf("set %s on %v after rebalance, want both survivors", id, h)
		}
		got, err := tc.client.Recover(ctx, "baseline", id)
		if err != nil || !want.Equal(got) {
			t.Fatalf("set %s not byte-identical after rebalance (err=%v)", id, err)
		}
	}

	// Both survivors pass fsck — replication debt was paid with
	// committed sets, not debris.
	for _, n := range []*testNode{tc.nodes[0], tc.nodes[2]} {
		fr, err := n.client.Fsck(ctx, false)
		if err != nil {
			t.Fatalf("fsck %s: %v", n.name, err)
		}
		if !fr.Clean() {
			t.Fatalf("fsck %s: %+v", n.name, fr.Issues)
		}
	}

	// Writes work again now that membership matches reality.
	if _, err := tc.client.Save(ctx, "baseline", clusterSet(t, 999), "", nil, nil); err != nil {
		t.Fatalf("save after membership fix: %v", err)
	}
}

// lastResponse is a transport that remembers the status and
// Retry-After header of the last response it carried.
type lastResponse struct {
	status     int
	retryAfter string
}

func (l *lastResponse) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		l.status, l.retryAfter = resp.StatusCode, resp.Header.Get("Retry-After")
	}
	return resp, err
}

func TestClusterReadFailoverDuringPartition(t *testing.T) {
	ctx := context.Background()
	tc := newCluster(t, 3, 2, RouterConfig{})

	set := clusterSet(t, 7)
	res, err := tc.client.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Partition each node in turn: R=2 means at most one owner is
	// gone, so the read must succeed every time.
	for _, n := range tc.nodes {
		n.gate.Partition()
		got, err := tc.client.Recover(ctx, "baseline", res.SetID)
		if err != nil {
			t.Fatalf("recover with %s partitioned: %v", n.name, err)
		}
		if !set.Equal(got) {
			t.Fatalf("recover with %s partitioned: bytes differ", n.name)
		}
		n.gate.Heal()
		tc.rt.Probe(ctx)
	}
}

// TestRouterGateMetricsAndBodyCap is the satellite-2 regression:
// routed endpoints sit behind the same Gate as local ones, so the
// router's /metrics must expose per-route HTTP series and the body cap
// must 413 oversized uploads before they fan out.
func TestRouterGateMetricsAndBodyCap(t *testing.T) {
	ctx := context.Background()
	tc := newCluster(t, 3, 2, RouterConfig{MaxBodyBytes: 16 << 10})

	set := clusterSet(t, 42)
	res, err := tc.client.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.Recover(ctx, "baseline", res.SetID); err != nil {
		t.Fatal(err)
	}

	// Oversized body dies at the router's gate with 413.
	resp, err := http.Post(tc.url+"/api/baseline/sets", "application/json",
		bytes.NewReader(make([]byte, 64<<10)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized save through router: status %d, want 413", resp.StatusCode)
	}

	text, err := tc.client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`mmm_http_requests_total{`,                    // per-route middleware ran
		`route="POST /api/{approach}/sets"`,           // routed save has its own series
		`route="GET /api/cas/recipe/{approach}/{id}"`, // and the proxied pull-read
		`mmm_http_request_seconds`,                    // latency histogram present
		`mmm_router_saves_total{outcome="ok"}`,        // router-specific series
		`mmm_router_node_up{`,                         // probe gauge registered
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("router /metrics missing %q\n---\n%s", want, text)
		}
	}
}

func TestVersionPreflightRefusesMixedPolicy(t *testing.T) {
	ctx := context.Background()
	reg := obs.New()
	rt := NewRouter(reg, RouterConfig{Replicas: 2})
	// The preflight adopts the first member in name order as the
	// reference policy, so the odd one out must sort last.
	matching := startNode(t, "a-plain-1", server.Config{Dedup: true})
	matching2 := startNode(t, "a-plain-2", server.Config{Dedup: true})
	odd := startNode(t, "z-odd", server.Config{Dedup: true, Codec: "zlib"})
	for _, n := range []*testNode{matching, matching2, odd} {
		if err := rt.AddMember(n.name, n.url); err != nil {
			t.Fatal(err)
		}
	}

	statuses, err := rt.CheckMembers(ctx)
	if err == nil {
		t.Fatal("preflight accepted a mixed-codec cluster")
	}
	refused := 0
	for _, ms := range statuses {
		if ms.Incompatible != "" {
			refused++
			if ms.Name != "z-odd" {
				t.Fatalf("wrong member refused: %s (%s)", ms.Name, ms.Incompatible)
			}
		}
	}
	if refused != 1 {
		t.Fatalf("refused %d members, want 1", refused)
	}
	if rt.Table().Usable("z-odd") {
		t.Fatal("incompatible member still routable")
	}

	// -allow-mixed waives the refusal (rolling upgrades).
	rtMixed := NewRouter(obs.New(), RouterConfig{Replicas: 2, AllowMixed: true})
	for _, n := range []*testNode{matching, matching2, odd} {
		if err := rtMixed.AddMember(n.name, n.url); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rtMixed.CheckMembers(ctx); err != nil {
		t.Fatalf("AllowMixed preflight: %v", err)
	}
	if !rtMixed.Table().Usable("z-odd") {
		t.Fatal("AllowMixed still refused the odd member")
	}
}

// TestRebalanceMovesOnlyMissingChunks: a node that rejoins with its
// stores intact must not be re-sent data it already holds.
func TestRebalanceMovesOnlyMissingChunks(t *testing.T) {
	ctx := context.Background()
	tc := newCluster(t, 3, 2, RouterConfig{})

	const sets = 16
	saved := map[string]*core.ModelSet{}
	var order []string
	for i := 0; i < sets; i++ {
		set := clusterSet(t, uint64(500+i))
		res, err := tc.client.Save(ctx, "baseline", set, "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		saved[res.SetID] = set
		order = append(order, res.SetID)
	}

	// A clean cluster rebalances to zero moves.
	rep0, err := tc.rt.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep0.Synced != 0 || rep0.BytesFetched != 0 {
		t.Fatalf("clean-cluster rebalance moved data: %+v", rep0)
	}

	// node-c leaves (cleanly — its store survives). Rebalance restores
	// R=2 among the remaining pair.
	down := tc.nodes[2]
	tc.rt.Table().Remove(down.name)
	rep1, err := tc.rt.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Synced == 0 || rep1.BytesFetched == 0 {
		t.Fatalf("departure rebalance moved nothing: %+v", rep1)
	}

	// While node-c is away, derived siblings of every set are saved:
	// lineage co-location places each next to its base, and a sibling
	// shares almost all chunk content with it.
	for i, baseID := range order {
		sib := saved[baseID].Clone()
		sib.Models[0].Params()[0].Tensor.Data[0] += float32(i + 1)
		res, err := tc.client.Save(ctx, "baseline", sib, baseID, nil, nil)
		if err != nil {
			t.Fatalf("sibling save %d: %v", i, err)
		}
		saved[res.SetID] = sib
	}

	// node-c rejoins with its old store intact. It now owes the
	// siblings of the sets it owns — but because it already holds the
	// bases, the syncs must pull only the few changed chunks; the
	// shared ones are local CAS hits, not wire transfers.
	if err := tc.rt.AddMember(down.name, down.url); err != nil {
		t.Fatal(err)
	}
	rep2, err := tc.rt.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Synced == 0 {
		t.Fatalf("rejoin rebalance owed node-c nothing: %+v", rep2)
	}
	if rep2.Unplaceable != 0 || len(rep2.Errors) != 0 {
		t.Fatalf("rejoin rebalance: %+v", rep2)
	}
	for _, mv := range rep2.Moves {
		if mv.To != down.name {
			t.Fatalf("rejoin rebalance moved %s/%s to %s — only node-c should be owed data",
				mv.Approach, mv.SetID, mv.To)
		}
	}
	if rep2.ChunkCacheHits == 0 {
		t.Fatalf("rejoin syncs hit no local chunks — full copies instead of deltas: %+v", rep2)
	}
	if rep2.BytesFetched >= rep1.BytesFetched {
		t.Fatalf("rejoin fetched %d bytes vs %d for the full departure rebalance — not a delta",
			rep2.BytesFetched, rep1.BytesFetched)
	}

	// Steady state: one more pass is a no-op, and every set reads back
	// byte-identical through the router.
	rep3, err := tc.rt.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Synced != 0 || rep3.BytesFetched != 0 {
		t.Fatalf("rebalance did not converge: %+v", rep3)
	}
	for id, want := range saved {
		got, err := tc.client.Recover(ctx, "baseline", id)
		if err != nil || !want.Equal(got) {
			t.Fatalf("set %s wrong after rebalance cycle (err=%v)", id, err)
		}
		// Rebalance adds missing replicas and never deletes, so a set
		// saved while membership was smaller may exceed R — the
		// invariant is that every current owner holds it and at least
		// R copies exist.
		h := holders(t, tc, "baseline", id)
		if len(h) < 2 {
			t.Fatalf("set %s under-replicated on %v", id, h)
		}
		held := map[string]bool{}
		for _, name := range h {
			held[name] = true
		}
		for _, owner := range tc.rt.Table().Owners(PlacementKey(id)) {
			if !held[owner.Name] {
				t.Fatalf("owner %s missing set %s (held by %v)", owner.Name, id, h)
			}
		}
	}
}

// TestClusterChurnConcurrentSavesStress is the satellite-3 coverage: saves
// racing a node join and a node leave lose nothing, and every node's
// store is fsck-clean afterwards.
func TestClusterChurnConcurrentSavesStress(t *testing.T) {
	ctx := context.Background()
	tc := newCluster(t, 3, 2, RouterConfig{})

	const sets = 24
	var (
		mu    sync.Mutex
		saved = map[string]*core.ModelSet{}
	)
	var wg sync.WaitGroup
	errs := make(chan error, sets)
	start := make(chan struct{})
	for i := 0; i < sets; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			set := clusterSet(t, uint64(1000+i))
			res, err := tc.client.Save(ctx, "baseline", set, "", nil, nil)
			if err != nil {
				errs <- fmt.Errorf("save %d: %w", i, err)
				return
			}
			mu.Lock()
			saved[res.SetID] = set
			mu.Unlock()
		}(i)
	}

	// Membership churns while the saves are in flight: a fourth node
	// joins, then the original third node leaves.
	joiner := startNode(t, "node-d", server.Config{Dedup: true})
	close(start)
	if err := tc.rt.AddMember(joiner.name, joiner.url); err != nil {
		t.Fatal(err)
	}
	tc.nodes = append(tc.nodes, joiner)
	leaver := tc.nodes[2]
	tc.rt.Table().Remove(leaver.name)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}
	if len(saved) != sets {
		t.Fatalf("saved %d sets, want %d", len(saved), sets)
	}

	// Rebalance pays any replication debt the churn created.
	rep, err := tc.rt.Rebalance(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Unplaceable != 0 || len(rep.Errors) != 0 {
		t.Fatalf("churn rebalance: %+v", rep)
	}

	// No set lost: the routed union list has all of them, and each one
	// recovers byte-identically with full replication.
	listed, err := tc.client.List(ctx, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	listedSet := map[string]bool{}
	for _, id := range listed {
		listedSet[id] = true
	}
	for id, want := range saved {
		if !listedSet[id] {
			t.Fatalf("set %s missing from routed list", id)
		}
		got, err := tc.client.Recover(ctx, "baseline", id)
		if err != nil || !want.Equal(got) {
			t.Fatalf("set %s wrong after churn (err=%v)", id, err)
		}
		if h := holders(t, tc, "baseline", id); len(h) != 2 {
			t.Fatalf("set %s on %v after churn+rebalance, want 2", id, h)
		}
	}

	// Every member's store is internally consistent.
	for _, n := range tc.nodes {
		if !tc.rt.Table().Usable(n.name) {
			continue
		}
		fr, err := n.client.Fsck(ctx, false)
		if err != nil {
			t.Fatalf("fsck %s: %v", n.name, err)
		}
		if !fr.Clean() {
			t.Fatalf("fsck %s after churn: %+v", n.name, fr.Issues)
		}
	}
}

// TestRouterLineageColocation: derived saves through the router land
// on the same owners as their base, so lineage recovery never needs a
// cross-node chunk fetch.
func TestRouterLineageColocation(t *testing.T) {
	ctx := context.Background()
	tc := newCluster(t, 3, 2, RouterConfig{})

	base := clusterSet(t, 9)
	baseRes, err := tc.client.Save(ctx, "baseline", base, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	derived := base.Clone()
	derived.Models[0].Params()[0].Tensor.Data[0] += 1
	derRes, err := tc.client.Save(ctx, "baseline", derived, baseRes.SetID, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	baseHolders := holders(t, tc, "baseline", baseRes.SetID)
	derHolders := holders(t, tc, "baseline", derRes.SetID)
	if fmt.Sprint(baseHolders) != fmt.Sprint(derHolders) {
		t.Fatalf("lineage split: base on %v, derived on %v", baseHolders, derHolders)
	}

	got, err := tc.client.Recover(ctx, "baseline", derRes.SetID)
	if err != nil || !derived.Equal(got) {
		t.Fatalf("derived set wrong through router (err=%v)", err)
	}
}

// TestRouterDeepLineageStaysPlaced saves a keyed chain twelve
// derivations deep through the router — every minted ID must stay a
// valid, fixed-length set ID in its root's placement group, and every
// depth must recover bit-exactly — and derives sets from client-chosen
// base IDs, which carry no group token: each must land on exactly its
// base's owners.
func TestRouterDeepLineageStaysPlaced(t *testing.T) {
	ctx := context.Background()
	tc := newCluster(t, 3, 2, RouterConfig{})

	set := clusterSet(t, 21)
	var ids []string
	var want []*core.ModelSet
	for depth := 0; depth <= 12; depth++ {
		base := ""
		if depth > 0 {
			base = ids[depth-1]
			set.Models[depth%set.Len()].Params()[0].Tensor.Data[0] += 0.5
		}
		res, err := tc.client.SaveWithKey(ctx, "baseline", fmt.Sprintf("chain-%d", depth), set, base, nil, nil)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		ids = append(ids, res.SetID)
		want = append(want, set.Clone())
		if len(res.SetID) > 33 || PlacementKey(res.SetID) != PlacementKey(ids[0]) {
			t.Fatalf("depth %d: minted %q left its root's group or grew past 33 bytes", depth, res.SetID)
		}
	}
	for depth, id := range ids {
		got, err := tc.client.Recover(ctx, "baseline", id)
		if err != nil || !want[depth].Equal(got) {
			t.Fatalf("depth %d (%s) wrong through router (err=%v)", depth, id, err)
		}
	}

	for i, id := range []string{"client-base-1", "client-base-2", "client-base-3"} {
		explicit := clusterSet(t, uint64(30+i))
		if _, err := tc.client.SaveAs(ctx, "baseline", id, explicit, "", nil, nil); err != nil {
			t.Fatal(err)
		}
		derived, err := tc.client.SaveWithKey(ctx, "baseline", "derive-"+id, clusterSet(t, uint64(40+i)), id, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b, d := holders(t, tc, "baseline", id), holders(t, tc, "baseline", derived.SetID); fmt.Sprint(b) != fmt.Sprint(d) {
			t.Fatalf("set %s derived from %s: on %v, base on %v", derived.SetID, id, d, b)
		}
	}
}

// TestRouterRecoversDerivedUpdateSet recovers a derived Update set
// through the router. Its owners answer the pull-manifest request with
// 404 pull_unavailable ("the set is here, use multipart"); the router
// must pass that answer through instead of failing over to a
// non-owner whose set_not_found would hide the set from the client.
func TestRouterRecoversDerivedUpdateSet(t *testing.T) {
	ctx := context.Background()
	tc := newCluster(t, 3, 2, RouterConfig{})
	set := clusterSet(t, 51)
	root, err := tc.client.SaveWithKey(ctx, "update", "update-root", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	set.Models[1].Params()[0].Tensor.Data[0] += 0.5
	derived, err := tc.client.SaveWithKey(ctx, "update", "update-derived", set, root.SetID, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := tc.client.Recover(ctx, "update", derived.SetID)
	if err != nil {
		t.Fatalf("recovering derived Update set %s through the router: %v", derived.SetID, err)
	}
	if !set.Equal(got) {
		t.Fatalf("derived Update set %s recovered with wrong bytes", derived.SetID)
	}
}
