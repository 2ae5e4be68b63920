package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/server"
	"github.com/mmm-go/mmm/internal/version"
)

// Router metric names.
const (
	// MetricRouterSaves counts routed saves by outcome ("ok" made
	// quorum, "quorum_failed" did not).
	MetricRouterSaves = "mmm_router_saves_total"
	// MetricRouterReplicaErrors counts per-node failures seen while
	// fanning out or proxying.
	MetricRouterReplicaErrors = "mmm_router_replica_errors_total"
	// MetricRouterFailovers counts reads that succeeded only after
	// skipping at least one replica.
	MetricRouterFailovers = "mmm_router_read_failovers_total"
	// MetricRouterNodeUp is 1 when the member passed its last probe.
	MetricRouterNodeUp = "mmm_router_node_up"
	// MetricRouterSyncs counts rebalance set-sync operations issued.
	MetricRouterSyncs = "mmm_router_rebalance_syncs_total"
	// MetricRouterSyncBytes counts chunk bytes rebalances moved over
	// the wire (the delta, not the logical set size).
	MetricRouterSyncBytes = "mmm_router_rebalance_bytes_fetched_total"
)

// ReplicasHeader reports a routed save's replication as "acked/owners".
const ReplicasHeader = "X-Mmm-Replicas"

// RouterConfig tunes a Router. Zero values mean: replication factor 2,
// majority write quorum, DefaultVNodes, no request timeout, no body
// cap, 1s Retry-After, strict version preflight.
type RouterConfig struct {
	// Replicas is the replication factor R: how many owners each set
	// has. Min 1; capped by cluster size at lookup time.
	Replicas int
	// WriteQuorum is how many owner acks a save needs (W). 0 means
	// majority: len(owners)/2+1.
	WriteQuorum int
	// VNodes is the virtual-node count per member.
	VNodes int
	// RequestTimeout, MaxBodyBytes, RetryAfter bound routed requests
	// exactly like server.Config bounds local ones (same Gate).
	RequestTimeout time.Duration
	MaxBodyBytes   int64
	RetryAfter     time.Duration
	// AllowMixed skips the version preflight's incompatibility
	// marking — an escape hatch for rolling upgrades, at the cost of
	// the byte-identity guarantees the preflight protects.
	AllowMixed bool
}

// Router is the stateless cluster entry point: it holds no model data,
// only the membership table, and speaks the same HTTP dialect as a
// single mmserve node — clients point server.Client at a router and
// cannot tell the difference, except that their sets now survive node
// loss. Routers are interchangeable: any number can front the same
// membership.
type Router struct {
	table *Table
	cfg   RouterConfig
	reg   *obs.Registry
	mux   *http.ServeMux
	gate  *server.Gate
	httpc *http.Client

	draining atomic.Bool

	// refMu guards ref, the reference VersionInfo adopted from the
	// members at the last preflight (what GET /api/version reports).
	refMu sync.Mutex
	ref   *server.VersionInfo
}

// NewRouter builds a router over an empty membership table; add
// members via Table().Add (or AddMember) and run CheckMembers before
// serving traffic.
func NewRouter(reg *obs.Registry, cfg RouterConfig) *Router {
	if reg == nil {
		reg = obs.Default
	}
	if cfg.Replicas < 1 {
		cfg.Replicas = 2
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	rt := &Router{
		table: NewTable(cfg.Replicas, cfg.VNodes),
		cfg:   cfg,
		reg:   reg,
		mux:   http.NewServeMux(),
		httpc: &http.Client{Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 64}},
	}
	rt.gate = &server.Gate{
		Registry: reg,
		Config: server.Config{
			RequestTimeout: cfg.RequestTimeout,
			MaxBodyBytes:   cfg.MaxBodyBytes,
			RetryAfter:     cfg.RetryAfter,
		},
		Draining: rt.draining.Load,
		Route: func(r *http.Request) string {
			_, route := rt.mux.Handler(r)
			return route
		},
		Next: rt.mux,
	}
	rt.gate.Describe()
	reg.Describe(MetricRouterSaves, "Routed saves by quorum outcome.")
	reg.Describe(MetricRouterReplicaErrors, "Per-node failures during fan-out or proxying.")
	reg.Describe(MetricRouterFailovers, "Reads that skipped at least one replica before succeeding.")
	reg.Describe(MetricRouterNodeUp, "1 when the member passed its last probe, 0 when down.")
	reg.Describe(MetricRouterSyncs, "Rebalance set-sync operations issued.")
	reg.Describe(MetricRouterSyncBytes, "Chunk bytes moved over the wire by rebalances.")
	rt.routes()
	return rt
}

// Table exposes the membership table for admin tooling and tests.
func (rt *Router) Table() *Table { return rt.table }

// AddMember registers an mmserve node.
func (rt *Router) AddMember(name, url string) error {
	return rt.table.Add(Member{Name: name, URL: strings.TrimRight(url, "/")})
}

// BeginDrain flips the router into drain mode (see Server.BeginDrain);
// it satisfies server.Drainer so ServeListener drains routers too.
func (rt *Router) BeginDrain() { rt.draining.Store(true) }

// ServeHTTP implements http.Handler through the shared Gate, so routed
// endpoints get the same per-route metrics, body cap, deadline, and
// drain behavior as a node's local ones.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.gate.ServeHTTP(w, r)
}

// client returns a wire client for a member. Stateless by design:
// clients are cheap structs over the shared pooled transport.
func (rt *Router) client(m Member) *server.Client {
	return &server.Client{BaseURL: m.URL, HTTP: rt.httpc, Reg: rt.reg}
}

func (rt *Router) routes() {
	rt.mux.HandleFunc("GET /healthz", rt.handleHealth)
	rt.mux.HandleFunc("GET /readyz", rt.handleReady)
	rt.mux.HandleFunc("GET /api/version", rt.handleVersion)
	rt.mux.HandleFunc("GET /api/approaches", rt.handleApproaches)
	rt.mux.HandleFunc("GET /api/{approach}/sets", rt.handleList)
	rt.mux.HandleFunc("POST /api/{approach}/sets", rt.handleSave)
	rt.mux.HandleFunc("GET /api/{approach}/sets/{id}", rt.handleSetProxy)
	rt.mux.HandleFunc("GET /api/{approach}/sets/{id}/params", rt.handleSetProxy)
	rt.mux.HandleFunc("GET /api/cas/recipe/{approach}/{id}", rt.handleRecipe)
	rt.mux.HandleFunc("GET /api/cas/chunk/{hash}", rt.handleChunk)
	rt.mux.HandleFunc("POST /api/{approach}/verify", rt.handleVerify)
	rt.mux.HandleFunc("POST /api/{approach}/prune", rt.handlePrune)
	rt.mux.HandleFunc("POST /api/datasets", rt.handlePutDataset)
	rt.mux.HandleFunc("GET /api/datasets", rt.handleListDatasets)
	rt.mux.HandleFunc("POST /api/fsck", rt.handleFsck)
	rt.mux.HandleFunc("GET /api/du", rt.handleDu)
	rt.mux.HandleFunc("GET /api/cluster/status", rt.handleStatus)
	rt.mux.HandleFunc("POST /api/cluster/rebalance", rt.handleRebalance)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
}

func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = rt.reg.WritePrometheus(w)
}

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (rt *Router) handleReady(w http.ResponseWriter, _ *http.Request) {
	if rt.draining.Load() {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	// A router with no usable member cannot serve anything.
	if len(rt.usable()) == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no usable members"})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleVersion reports the cluster's identity: the router's build
// stamp plus the codec/dedup policy adopted from the members at the
// last preflight, so a client's codec assertion works against a router
// exactly as against a node.
func (rt *Router) handleVersion(w http.ResponseWriter, _ *http.Request) {
	rt.refMu.Lock()
	ref := rt.ref
	rt.refMu.Unlock()
	out := server.VersionInfo{Version: version.Version, Codec: "none"}
	if ref != nil {
		out.Codec, out.Dedup, out.Approaches = ref.Codec, ref.Dedup, ref.Approaches
	}
	server.WriteJSON(w, http.StatusOK, out)
}

func (rt *Router) handleStatus(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"members":      rt.table.Members(),
		"replicas":     rt.table.Replicas(),
		"write_quorum": rt.quorum(rt.table.Replicas()),
	})
}

// usable lists the members the router may route to right now.
func (rt *Router) usable() []Member {
	var out []Member
	for _, ms := range rt.table.Members() {
		if !ms.Down && ms.Incompatible == "" {
			out = append(out, ms.Member)
		}
	}
	return out
}

// quorum is the ack count a save over n owners needs.
func (rt *Router) quorum(n int) int {
	if rt.cfg.WriteQuorum > 0 {
		if rt.cfg.WriteQuorum < n {
			return rt.cfg.WriteQuorum
		}
		return n
	}
	return n/2 + 1
}

// noteNodeError records a failed call to a member and marks it down so
// subsequent reads skip it until a probe brings it back.
func (rt *Router) noteNodeError(m Member) {
	rt.reg.Counter(MetricRouterReplicaErrors, obs.L("node", m.Name)).Inc()
	rt.table.SetDown(m.Name, true)
	rt.reg.Gauge(MetricRouterNodeUp, obs.L("node", m.Name)).Set(0)
}

// ---- write path -----------------------------------------------------

// routerError mirrors the server's JSON error envelope for the few
// spots where the router authors errors itself.
type routerError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// bodyStatus maps a body-read failure: 413 when the Gate's cap
// triggered, 400 otherwise.
func bodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) || strings.Contains(err.Error(), "request body too large") {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// peekManifest extracts the manifest part from a buffered multipart
// save body without consuming it — the router needs the base set (for
// placement) and any explicit ID before fanning the same bytes out.
func peekManifest(contentType string, body []byte) (*server.Manifest, error) {
	mediaType, params, err := mime.ParseMediaType(contentType)
	if err != nil || !strings.HasPrefix(mediaType, "multipart/") {
		return nil, fmt.Errorf("cluster: expected multipart save body, got %q", contentType)
	}
	mr := multipart.NewReader(bytes.NewReader(body), params["boundary"])
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("cluster: reading save body: %w", err)
		}
		if part.FormName() == "manifest" {
			m := &server.Manifest{}
			if err := json.NewDecoder(io.LimitReader(part, 1<<24)).Decode(m); err != nil {
				return nil, fmt.Errorf("cluster: parsing manifest: %w", err)
			}
			return m, nil
		}
	}
	return nil, fmt.Errorf("cluster: save body has no manifest part")
}

// freshKey mints an idempotency key for clients that sent none: the
// router derives the replicated set ID from it.
func freshKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand failing means the process is unusable
	}
	return "router-" + hex.EncodeToString(b[:])
}

// handleSave fans a save out to all R owners of the minted set ID and
// acks once W of them committed. Every replica saves under the same
// explicit set ID, so the save lands exactly once per node under one
// cluster-wide name no matter how often the client or the router
// retries.
func (rt *Router) handleSave(w http.ResponseWriter, r *http.Request) {
	approach := r.PathValue("approach")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		server.WriteJSON(w, bodyStatus(err), routerError{Error: err.Error()})
		return
	}
	manifest, err := peekManifest(r.Header.Get("Content-Type"), body)
	if err != nil {
		server.WriteJSON(w, http.StatusBadRequest, routerError{Error: err.Error()})
		return
	}
	key := r.Header.Get(server.IdempotencyKeyHeader)
	if key == "" {
		key = freshKey()
	}
	setID := r.Header.Get(server.SetIDHeader)
	if setID == "" {
		setID = manifest.SetID
	}
	if setID == "" {
		setID = MintID(key, manifest.Base)
	}
	if err := core.ValidateSetID(setID); err != nil {
		server.WriteJSON(w, http.StatusBadRequest, routerError{Error: err.Error()})
		return
	}

	owners := rt.table.Owners(PlacementKey(setID))
	if len(owners) == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, routerError{Error: "cluster has no members"})
		return
	}
	quorum := rt.quorum(len(owners))

	type ack struct {
		res core.SaveResult
		err error
	}
	acks := make([]ack, len(owners))
	var wg sync.WaitGroup
	for i, m := range owners {
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			acks[i].res, acks[i].err = rt.saveOn(r, m, approach, setID, body)
			if acks[i].err != nil {
				rt.noteNodeError(m)
			}
		}(i, m)
	}
	wg.Wait()

	var got int
	var first *core.SaveResult
	var failures []string
	for i := range acks {
		if acks[i].err == nil {
			got++
			if first == nil {
				first = &acks[i].res
			}
		} else {
			failures = append(failures, fmt.Sprintf("%s: %v", owners[i].Name, acks[i].err))
		}
	}
	if got < quorum {
		rt.reg.Counter(MetricRouterSaves, obs.L("outcome", "quorum_failed")).Inc()
		w.Header().Set("Retry-After", "1")
		server.WriteJSON(w, http.StatusServiceUnavailable, routerError{
			Error: fmt.Sprintf("save %s/%s reached %d of %d required replicas (owners %d): %s",
				approach, setID, got, quorum, len(owners), strings.Join(failures, "; ")),
		})
		return
	}
	rt.reg.Counter(MetricRouterSaves, obs.L("outcome", "ok")).Inc()
	w.Header().Set(ReplicasHeader, fmt.Sprintf("%d/%d", got, len(owners)))
	server.WriteJSON(w, http.StatusCreated, first)
}

// saveOn replays the buffered save body onto one owner. A set_exists
// conflict counts as success: the replica has committed this exact
// logical save under the minted ID, and a replay writes nothing. A set
// the replica is still writing answers 503, which is not an ack.
func (rt *Router) saveOn(r *http.Request, m Member, approach, setID string, body []byte) (core.SaveResult, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost,
		m.URL+"/api/"+approach+"/sets", bytes.NewReader(body))
	if err != nil {
		return core.SaveResult{}, err
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	req.Header.Set(server.SetIDHeader, setID)
	resp, err := rt.httpc.Do(req)
	if err != nil {
		return core.SaveResult{}, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusCreated:
		var res core.SaveResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			return core.SaveResult{}, fmt.Errorf("decoding save result: %w", err)
		}
		return res, nil
	case resp.StatusCode == http.StatusConflict:
		var e routerError
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
		if e.Code == "set_exists" {
			return core.SaveResult{SetID: setID}, nil
		}
		return core.SaveResult{}, fmt.Errorf("HTTP 409: %s", e.Error)
	default:
		var e routerError
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
		if e.Error == "" {
			e.Error = fmt.Sprintf("HTTP %d", resp.StatusCode)
		}
		return core.SaveResult{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Error)
	}
}

// ---- read path ------------------------------------------------------

// candidates orders members for a read: usable owners and successors
// first (ring order from the key), then down-marked members as a last
// resort — a stale down mark must not make data unreachable.
// Incompatible members are never used.
func (rt *Router) candidates(key string) []Member {
	seq := rt.table.Sequence(key)
	usable := make([]Member, 0, len(seq))
	var lastResort []Member
	for _, m := range seq {
		if rt.table.Usable(m.Name) {
			usable = append(usable, m)
		} else {
			for _, ms := range rt.table.Members() {
				if ms.Name == m.Name && ms.Incompatible == "" {
					lastResort = append(lastResort, m)
				}
			}
		}
	}
	return append(usable, lastResort...)
}

// proxyGet forwards a GET to the first candidate that answers it,
// streaming the response through. 404s and 5xx failover to the next
// candidate (this replica may be missing a set its peers hold); other
// statuses are authoritative, and so is a 404 pull_unavailable — the
// node holds the set and tells the client to use multipart, which a
// later non-owner's set_not_found must not hide. A body that dies
// mid-stream aborts the client connection so the truncation is never
// mistaken for success.
func (rt *Router) proxyGet(w http.ResponseWriter, r *http.Request, members []Member) {
	if len(members) == 0 {
		server.WriteJSON(w, http.StatusServiceUnavailable, routerError{Error: "cluster has no usable members"})
		return
	}
	var lastStatus int
	var lastBody []byte
	var lastType string
	for i, m := range members {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, m.URL+r.URL.RequestURI(), nil)
		if err != nil {
			server.WriteJSON(w, http.StatusInternalServerError, routerError{Error: err.Error()})
			return
		}
		for _, h := range []string{"Range", "If-Range", "Accept"} {
			if v := r.Header.Get(h); v != "" {
				req.Header.Set(h, v)
			}
		}
		resp, err := rt.httpc.Do(req)
		if err != nil {
			rt.noteNodeError(m)
			continue
		}
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode >= 500 {
			// Remember the most recent refusal: if every candidate
			// misses, the client deserves the envelope (set_not_found
			// etc.), not a synthetic error.
			lastStatus = resp.StatusCode
			lastType = resp.Header.Get("Content-Type")
			lastBody, _ = io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			if resp.StatusCode >= 500 {
				rt.noteNodeError(m)
			}
			var e routerError
			if resp.StatusCode == http.StatusNotFound && json.Unmarshal(lastBody, &e) == nil && e.Code == "pull_unavailable" {
				break
			}
			continue
		}
		if i > 0 {
			rt.reg.Counter(MetricRouterFailovers).Inc()
		}
		for _, h := range []string{"Content-Type", "Content-Length", "Content-Range", "Accept-Ranges", "ETag"} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		if _, err := io.Copy(w, resp.Body); err != nil {
			resp.Body.Close()
			panic(http.ErrAbortHandler)
		}
		resp.Body.Close()
		return
	}
	if lastStatus != 0 {
		if lastType != "" {
			w.Header().Set("Content-Type", lastType)
		}
		w.WriteHeader(lastStatus)
		_, _ = w.Write(lastBody)
		return
	}
	server.WriteJSON(w, http.StatusBadGateway, routerError{Error: "no replica answered"})
}

func (rt *Router) handleSetProxy(w http.ResponseWriter, r *http.Request) {
	rt.proxyGet(w, r, rt.candidates(PlacementKey(r.PathValue("id"))))
}

func (rt *Router) handleRecipe(w http.ResponseWriter, r *http.Request) {
	rt.proxyGet(w, r, rt.candidates(PlacementKey(r.PathValue("id"))))
}

// handleChunk probes for a chunk across the cluster. A chunk lives
// wherever the sets referencing it live, which the hash alone cannot
// reveal — so the probe order is simply ring order from the hash
// (deterministic, spreads load) over every member, failing over on
// 404.
func (rt *Router) handleChunk(w http.ResponseWriter, r *http.Request) {
	rt.proxyGet(w, r, rt.candidates(r.PathValue("hash")))
}

func (rt *Router) handleApproaches(w http.ResponseWriter, r *http.Request) {
	rt.proxyGet(w, r, rt.usable())
}

// ---- fan-out reads --------------------------------------------------

// fanout runs fn against every usable member concurrently and returns
// the per-member results. Member errors are collected, not fatal —
// merge handlers decide how much of the cluster must answer.
func (rt *Router) fanout(ctx context.Context, fn func(ctx context.Context, m Member) (any, error)) (oks map[string]any, errs map[string]error) {
	members := rt.usable()
	oks = make(map[string]any, len(members))
	errs = map[string]error{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			v, err := fn(ctx, m)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[m.Name] = err
			} else {
				oks[m.Name] = v
			}
		}(m)
	}
	wg.Wait()
	for name, err := range errs {
		for _, m := range members {
			if m.Name == name {
				rt.noteNodeError(m)
			}
		}
		_ = err
	}
	return oks, errs
}

// fanoutErr formats per-member failures.
func fanoutErr(errs map[string]error) string {
	parts := make([]string, 0, len(errs))
	for name, err := range errs {
		parts = append(parts, fmt.Sprintf("%s: %v", name, err))
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}

// handleList unions the set listings of every usable member: with
// R < N each node holds a subset, and the union is the cluster's
// catalog. Any member answering is enough — missing members can only
// hide sets, and their sets are (quorum permitting) replicated
// elsewhere anyway.
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	approach := r.PathValue("approach")
	oks, errs := rt.fanout(r.Context(), func(ctx context.Context, m Member) (any, error) {
		return rt.client(m).List(ctx, approach)
	})
	if len(oks) == 0 {
		server.WriteJSON(w, http.StatusBadGateway, routerError{Error: "no member answered: " + fanoutErr(errs)})
		return
	}
	seen := map[string]bool{}
	out := []string{}
	for _, v := range oks {
		for _, id := range v.([]string) {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Strings(out)
	server.WriteJSON(w, http.StatusOK, out)
}

func (rt *Router) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	oks, errs := rt.fanout(r.Context(), func(ctx context.Context, m Member) (any, error) {
		return rt.client(m).Datasets(ctx)
	})
	if len(oks) == 0 {
		server.WriteJSON(w, http.StatusBadGateway, routerError{Error: "no member answered: " + fanoutErr(errs)})
		return
	}
	seen := map[string]bool{}
	out := []string{}
	for _, v := range oks {
		for _, id := range v.([]string) {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Strings(out)
	server.WriteJSON(w, http.StatusOK, out)
}

// handlePutDataset registers a dataset on every usable member —
// dataset specs are tiny reference data every replica needs (a
// provenance save validates against the local registry), so they are
// replicated everywhere rather than sharded, and registration demands
// unanimity among usable members.
func (rt *Router) handlePutDataset(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		server.WriteJSON(w, bodyStatus(err), routerError{Error: err.Error()})
		return
	}
	var id string
	var mu sync.Mutex
	oks, errs := rt.fanout(r.Context(), func(ctx context.Context, m Member) (any, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+"/api/datasets", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := rt.httpc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			var e routerError
			_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
			return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, e.Error)
		}
		var out map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, err
		}
		mu.Lock()
		id = out["id"]
		mu.Unlock()
		return out, nil
	})
	if len(errs) > 0 || len(oks) == 0 {
		server.WriteJSON(w, http.StatusBadGateway,
			routerError{Error: "dataset registration incomplete: " + fanoutErr(errs)})
		return
	}
	server.WriteJSON(w, http.StatusCreated, map[string]string{"id": id})
}

// handleVerify fans the integrity check to every usable member and
// concatenates the findings, each tagged with the node that reported
// it.
func (rt *Router) handleVerify(w http.ResponseWriter, r *http.Request) {
	approach := r.PathValue("approach")
	oks, errs := rt.fanout(r.Context(), func(ctx context.Context, m Member) (any, error) {
		return rt.client(m).Verify(ctx, approach)
	})
	if len(oks) == 0 {
		server.WriteJSON(w, http.StatusBadGateway, routerError{Error: "no member answered: " + fanoutErr(errs)})
		return
	}
	out := []core.Issue{}
	for name, v := range oks {
		for _, is := range v.([]core.Issue) {
			is.Problem = "[" + name + "] " + is.Problem
			out = append(out, is)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SetID != out[j].SetID {
			return out[i].SetID < out[j].SetID
		}
		return out[i].Problem < out[j].Problem
	})
	server.WriteJSON(w, http.StatusOK, out)
}

// handlePrune fans the prune to every usable member (each node prunes
// its own replicas; the keep-closure is computed locally) and merges:
// union of kept and deleted IDs, summed freed bytes. Pruning with a
// member down is refused — the downed node would resurrect pruned
// sets' placement on rejoin without its own prune.
func (rt *Router) handlePrune(w http.ResponseWriter, r *http.Request) {
	approach := r.PathValue("approach")
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		server.WriteJSON(w, bodyStatus(err), routerError{Error: err.Error()})
		return
	}
	var keep struct {
		Keep []string `json:"keep"`
	}
	if err := json.Unmarshal(body, &keep); err != nil {
		server.WriteJSON(w, http.StatusBadRequest, routerError{Error: err.Error()})
		return
	}
	for _, ms := range rt.table.Members() {
		if ms.Down {
			server.WriteJSON(w, http.StatusServiceUnavailable, routerError{
				Error: fmt.Sprintf("member %s is down; pruning with absent replicas would diverge on rejoin", ms.Name)})
			return
		}
	}
	oks, errs := rt.fanout(r.Context(), func(ctx context.Context, m Member) (any, error) {
		return rt.client(m).Prune(ctx, approach, keep.Keep)
	})
	if len(errs) > 0 || len(oks) == 0 {
		server.WriteJSON(w, http.StatusBadGateway, routerError{Error: "prune incomplete: " + fanoutErr(errs)})
		return
	}
	merged := core.PruneReport{}
	keptSeen, delSeen := map[string]bool{}, map[string]bool{}
	for _, v := range oks {
		rep := v.(*core.PruneReport)
		for _, id := range rep.Kept {
			if !keptSeen[id] {
				keptSeen[id] = true
				merged.Kept = append(merged.Kept, id)
			}
		}
		for _, id := range rep.Deleted {
			if !delSeen[id] {
				delSeen[id] = true
				merged.Deleted = append(merged.Deleted, id)
			}
		}
		merged.FreedBytes += rep.FreedBytes
	}
	sort.Strings(merged.Kept)
	sort.Strings(merged.Deleted)
	server.WriteJSON(w, http.StatusOK, merged)
}

// handleFsck fans the store-wide check to every usable member; counts
// are summed, issues concatenated with their node tagged into the
// problem text.
func (rt *Router) handleFsck(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	repair := false
	if len(body) > 0 {
		var req struct {
			Repair bool `json:"repair"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			server.WriteJSON(w, http.StatusBadRequest, routerError{Error: err.Error()})
			return
		}
		repair = req.Repair
	}
	oks, errs := rt.fanout(r.Context(), func(ctx context.Context, m Member) (any, error) {
		return rt.client(m).Fsck(ctx, repair)
	})
	if len(oks) == 0 {
		server.WriteJSON(w, http.StatusBadGateway, routerError{Error: "no member answered: " + fanoutErr(errs)})
		return
	}
	merged := core.FsckReport{}
	for name, v := range oks {
		rep := v.(*core.FsckReport)
		merged.Sets += rep.Sets
		merged.BytesVerified += rep.BytesVerified
		for _, is := range rep.Issues {
			is.Problem = "[" + name + "] " + is.Problem
			merged.Issues = append(merged.Issues, is)
		}
	}
	sort.Slice(merged.Issues, func(i, j int) bool {
		return merged.Issues[i].Problem < merged.Issues[j].Problem
	})
	server.WriteJSON(w, http.StatusOK, merged)
}

// handleDu sums storage occupancy across usable members. Per-set rows
// are omitted: each set appears on R nodes and per-replica rows would
// double-count without an aggregation story; the totals are the
// cluster's real disk footprint.
func (rt *Router) handleDu(w http.ResponseWriter, r *http.Request) {
	oks, errs := rt.fanout(r.Context(), func(ctx context.Context, m Member) (any, error) {
		return rt.client(m).Du(ctx)
	})
	if len(oks) == 0 {
		server.WriteJSON(w, http.StatusBadGateway, routerError{Error: "no member answered: " + fanoutErr(errs)})
		return
	}
	merged := core.DuReport{Sets: []core.DuSet{}}
	for _, v := range oks {
		rep := v.(*core.DuReport)
		merged.LogicalBytes += rep.LogicalBytes
		merged.PhysicalBytes += rep.PhysicalBytes
		merged.RawBytes += rep.RawBytes
		merged.ChunkBytes += rep.ChunkBytes
		merged.RecipeBytes += rep.RecipeBytes
		merged.Chunks += rep.Chunks
		merged.QuarantinedCount += rep.QuarantinedCount
		merged.QuarantinedBytes += rep.QuarantinedBytes
	}
	if merged.PhysicalBytes > 0 {
		merged.DedupRatioPercent = merged.LogicalBytes * 100 / merged.PhysicalBytes
	}
	server.WriteJSON(w, http.StatusOK, merged)
}

// ---- membership health ----------------------------------------------

// CheckMembers is the version preflight: every member must run the
// same build with the same storage policy (codec, dedup) as every
// other — and as this router — or replicas of one set would disagree
// byte-for-byte. Incompatible members are marked and never routed to;
// unreachable members are marked down. AllowMixed downgrades the
// marking to log-only.
func (rt *Router) CheckMembers(ctx context.Context) ([]MemberStatus, error) {
	members := rt.table.Members()
	type res struct {
		name string
		info server.VersionInfo
		err  error
	}
	out := make([]res, len(members))
	var wg sync.WaitGroup
	for i, ms := range members {
		wg.Add(1)
		go func(i int, m Member) {
			defer wg.Done()
			out[i].name = m.Name
			out[i].info, out[i].err = rt.client(m).Version(ctx)
		}(i, ms.Member)
	}
	wg.Wait()

	// Adopt the first reachable member (by name order) as the policy
	// reference.
	var ref *server.VersionInfo
	for i := range out {
		if out[i].err == nil {
			ref = &out[i].info
			break
		}
	}
	for i := range out {
		name := out[i].name
		if out[i].err != nil {
			rt.table.SetDown(name, true)
			rt.reg.Gauge(MetricRouterNodeUp, obs.L("node", name)).Set(0)
			continue
		}
		rt.table.SetDown(name, false)
		rt.reg.Gauge(MetricRouterNodeUp, obs.L("node", name)).Set(1)
		reason := ""
		if out[i].info.Version != version.Version {
			reason = fmt.Sprintf("node runs %s, router runs %s", out[i].info.Version, version.Version)
		} else if ref != nil && !ref.Compatible(out[i].info) {
			reason = fmt.Sprintf("storage policy mismatch: node codec=%s dedup=%v, cluster codec=%s dedup=%v",
				out[i].info.Codec, out[i].info.Dedup, ref.Codec, ref.Dedup)
		}
		if rt.cfg.AllowMixed {
			reason = ""
		}
		rt.table.SetIncompatible(name, reason)
	}
	if ref != nil {
		rt.refMu.Lock()
		rt.ref = ref
		rt.refMu.Unlock()
	}
	statuses := rt.table.Members()
	if ref == nil && len(members) > 0 {
		return statuses, fmt.Errorf("cluster: no member reachable for version preflight")
	}
	for _, ms := range statuses {
		if ms.Incompatible != "" {
			return statuses, fmt.Errorf("cluster: member %s refused: %s", ms.Name, ms.Incompatible)
		}
	}
	return statuses, nil
}

// Probe checks every member's health once, flipping down marks (and
// the node_up gauge) accordingly. Recovered nodes become routable
// again here — passive error marking only ever takes nodes out.
func (rt *Router) Probe(ctx context.Context) {
	var wg sync.WaitGroup
	for _, ms := range rt.table.Members() {
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			err := rt.client(m).Health(ctx)
			rt.table.SetDown(m.Name, err != nil)
			up := int64(1)
			if err != nil {
				up = 0
			}
			rt.reg.Gauge(MetricRouterNodeUp, obs.L("node", m.Name)).Set(up)
		}(ms.Member)
	}
	wg.Wait()
}

// StartProbing runs Probe every interval until ctx is canceled.
func (rt *Router) StartProbing(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				probeCtx, cancel := context.WithTimeout(ctx, interval)
				rt.Probe(probeCtx)
				cancel()
			}
		}
	}()
}
