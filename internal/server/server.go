// Package server exposes multi-model management as an HTTP service:
// the deployment picture of the paper's Figure 1 — many devices (or a
// fleet gateway) pushing updated model sets to a central manager, and
// analysts pulling selected models back out after incidents.
//
// The wire format keeps parameters binary end to end: a save request
// is a multipart body with a JSON "manifest" part (architecture, base
// set, update records, training info) and a raw "params" part
// (concatenated little-endian float32, exactly the Baseline file
// layout); recovery responses mirror it. Nothing is base64'd, so a
// 5000-model FFNN-48 set costs its 99.9 MB and not 133 MB.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/obs"
)

// Manifest is the JSON part of a save request: everything about a set
// except the parameter bytes.
type Manifest struct {
	Arch      *nn.Architecture   `json:"arch"`
	NumModels int                `json:"num_models"`
	Base      string             `json:"base,omitempty"`
	Updates   []core.ModelUpdate `json:"updates,omitempty"`
	Train     *core.TrainInfo    `json:"train,omitempty"`
	// SetID, when set, is an explicit ID for the saved set instead of a
	// server-allocated sequential one. The cluster router mints IDs this
	// way so the same logical save lands under the same ID on every
	// replica. The X-Mmm-Set-Id header overrides this field. Saving an
	// ID that already exists fails with 409/set_exists.
	SetID string `json:"set_id,omitempty"`
	// Codec, when set, asserts the compression codec the client
	// expects the save to be stored with. The server's approaches are
	// constructed once with the server-wide codec (Config.Codec), so a
	// mismatching assertion is rejected rather than silently ignored.
	Codec string `json:"codec,omitempty"`
}

// RecoveryManifest is the JSON part of a recovery response.
type RecoveryManifest struct {
	Arch      *nn.Architecture `json:"arch"`
	NumModels int              `json:"num_models"`
	// Indices is set on selective recoveries: the model index each
	// consecutive parameter block belongs to.
	Indices []int `json:"indices,omitempty"`
	// Report is set on degraded recoveries (?partial=1): which models
	// were skipped and why.
	Report *core.RecoveryReport `json:"report,omitempty"`
	// Codec is the compression codec ID the recovered set was saved
	// with ("" for none). The parameter bytes in the response are
	// always decoded — this is provenance, not an encoding marker.
	Codec string `json:"codec,omitempty"`
}

// Config bounds a server's per-request behavior. The zero value means
// no request timeout, the built-in body cap only, and a 1-second
// Retry-After hint during drain.
type Config struct {
	// RequestTimeout caps each request's handling time via its context;
	// zero disables the deadline.
	RequestTimeout time.Duration
	// MaxBodyBytes caps request body size via http.MaxBytesReader;
	// oversized bodies fail with 413. Zero applies no cap beyond the
	// handler-level limits.
	MaxBodyBytes int64
	// RetryAfter is the Retry-After hint sent with drain-mode 503s.
	RetryAfter time.Duration
	// Codec is the compression codec ID every approach is constructed
	// with (equivalent to appending core.WithCodec(Codec) to the
	// options); "" stores blobs raw. Stores written with other codecs
	// remain readable — the codec only affects new saves.
	Codec string
	// CacheBytes attaches an in-memory serving-tier chunk cache of at
	// most this many bytes to the store (core.WithChunkCache), so
	// repeated recoveries of warm sets skip store reads and decode
	// work. Zero or negative leaves the store uncached.
	CacheBytes int64
	// Dedup routes every save through the chunk-level CAS layer
	// (core.WithDedup), which also makes full snapshots servable over
	// the pull protocol and syncable between cluster nodes chunk-wise.
	Dedup bool
}

// Server is the HTTP transport over a Service: mux routing plus the
// Gate middleware (per-route metrics, drain, body cap, deadline). The
// storage behavior itself lives in the embedded Service.
type Server struct {
	*Service
	mux      *http.ServeMux
	metrics  *obs.Registry
	cfg      Config
	draining atomic.Bool
	gate     *Gate
}

// New builds a server over stores, exposing the four standard
// approaches under their lower-case names (baseline, update,
// provenance, mmlib). Options (e.g. core.WithConcurrency) are applied
// to every approach. Metrics go to obs.Default and are served on
// GET /metrics; use NewWithMetrics to isolate them.
func New(stores core.Stores, opts ...core.Option) *Server {
	return NewWithMetrics(stores, obs.Default, opts...)
}

// NewWithMetrics is New with an explicit metrics registry: approach
// and HTTP instrumentation record into reg, and GET /metrics renders
// reg. A core.WithMetrics in opts overrides the approach wiring but
// not what /metrics serves.
func NewWithMetrics(stores core.Stores, reg *obs.Registry, opts ...core.Option) *Server {
	return NewWithConfig(stores, reg, Config{}, opts...)
}

// NewWithConfig is NewWithMetrics with explicit request bounds.
func NewWithConfig(stores core.Stores, reg *obs.Registry, cfg Config, opts ...core.Option) *Server {
	if reg == nil {
		reg = obs.Default
	}
	cfg = normalizeConfig(cfg)
	s := &Server{
		Service: NewService(stores, reg, cfg, opts...),
		mux:     http.NewServeMux(),
		metrics: reg,
		cfg:     cfg,
	}
	s.gate = &Gate{
		Registry: reg,
		Config:   cfg,
		Draining: s.draining.Load,
		Route: func(r *http.Request) string {
			_, route := s.mux.Handler(r)
			return route
		},
		Next: s.mux,
	}
	s.gate.Describe()
	reg.Describe(metricHTTPReplays, "Keyed saves whose set was already committed, answered without writing.")
	s.routes()
	return s
}

// BeginDrain puts the server into drain mode: /readyz starts failing
// and every request except health, readiness, and metrics is rejected
// with 503 and a Retry-After hint, while requests already in flight
// run to completion. Draining is one-way; a draining process is on its
// way out.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ServeHTTP implements http.Handler by delegating to the Gate
// middleware (per-route metrics, drain-mode 503s, the request body
// cap, and the per-request deadline) wrapping the route mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.gate.ServeHTTP(w, r)
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /api/approaches", s.handleApproaches)
	s.mux.HandleFunc("GET /api/{approach}/sets", s.handleList)
	s.mux.HandleFunc("POST /api/{approach}/sets", s.handleSave)
	s.mux.HandleFunc("GET /api/{approach}/sets/{id}", s.handleInfo)
	s.mux.HandleFunc("GET /api/{approach}/sets/{id}/params", s.handleRecover)
	s.mux.HandleFunc("GET /api/cas/recipe/{approach}/{id}", s.handlePullRecipe)
	s.mux.HandleFunc("GET /api/cas/chunk/{hash}", s.handleChunk)
	s.mux.HandleFunc("POST /api/{approach}/verify", s.handleVerify)
	s.mux.HandleFunc("POST /api/{approach}/prune", s.handlePrune)
	s.mux.HandleFunc("POST /api/datasets", s.handlePutDataset)
	s.mux.HandleFunc("GET /api/datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /api/fsck", s.handleFsck)
	s.mux.HandleFunc("GET /api/du", s.handleDu)
	s.mux.HandleFunc("GET /api/version", s.handleVersion)
	s.mux.HandleFunc("POST /api/cluster/sync", s.handleSync)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// handleMetrics renders the registry in Prometheus text exposition
// format (version 0.0.4), written by hand — the server takes no
// dependency on a metrics client library.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WritePrometheus(w)
}

// httpError is the JSON error envelope. Code carries the sentinel the
// error wraps, so clients can reconstruct errors.Is semantics across
// the HTTP boundary instead of matching on status codes alone.
type httpError struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Error codes carried in the envelope.
const (
	codeSetNotFound      = "set_not_found"
	codeChecksumMismatch = "checksum_mismatch"
	codeCorruptBlob      = "corrupt_blob"
	codeBudgetExceeded   = "budget_exceeded"
	codeBaseMismatch     = "base_mismatch"
	// codePullUnavailable marks a set that exists but cannot be served
	// over the chunk-level pull protocol; clients fall back to the
	// multipart recovery path.
	codePullUnavailable = "pull_unavailable"
	// codeNoSpace marks a save the server's disk could not hold. The
	// save rolled back cleanly; the client may retry after the operator
	// frees space.
	codeNoSpace = "no_space"
	// codeSetExists marks an explicit-ID save whose ID a committed set
	// already holds. For a router replaying the same logical save onto
	// a replica this means "already replicated" — success, not failure.
	codeSetExists = "set_exists"
)

// errorCode maps an error onto its wire code ("" if it wraps no known
// sentinel). Checksum mismatches are tested before generic corruption:
// they are the more specific diagnosis.
func errorCode(err error) string {
	switch {
	case errors.Is(err, core.ErrSetNotFound):
		return codeSetNotFound
	case errors.Is(err, core.ErrChecksumMismatch):
		return codeChecksumMismatch
	case errors.Is(err, core.ErrCorruptBlob):
		return codeCorruptBlob
	case errors.Is(err, core.ErrBudgetExceeded):
		return codeBudgetExceeded
	case errors.Is(err, core.ErrBaseMismatch):
		return codeBaseMismatch
	case errors.Is(err, core.ErrPullUnavailable):
		return codePullUnavailable
	case errors.Is(err, core.ErrSetExists):
		return codeSetExists
	case core.IsNoSpace(err):
		return codeNoSpace
	default:
		return ""
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, httpError{Error: err.Error(), Code: errorCode(err)})
}

func (s *Server) approach(w http.ResponseWriter, r *http.Request) (core.Approach, bool) {
	name := r.PathValue("approach")
	a, ok := s.approaches[name]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown approach %q", name))
		return nil, false
	}
	return a, true
}

// handleHealth is liveness: the process is up and serving. It stays
// 200 during drain — a draining process is alive, just not accepting
// new work.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is readiness: whether the server wants new traffic. It
// flips to 503 the moment drain begins, so load balancers stop routing
// here while in-flight requests finish.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleApproaches(w http.ResponseWriter, _ *http.Request) {
	names := make([]string, 0, len(s.approaches))
	for n := range s.approaches {
		names = append(names, n)
	}
	sort.Strings(names)
	writeJSON(w, http.StatusOK, names)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	a, ok := s.approach(w, r)
	if !ok {
		return
	}
	l, ok := a.(interface{ SetIDs() ([]string, error) })
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("approach does not list sets"))
		return
	}
	ids, err := l.SetIDs()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, ids)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	a, ok := s.approach(w, r)
	if !ok {
		return
	}
	l, ok := a.(core.Lineager)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("approach does not expose lineage"))
		return
	}
	chain, err := l.Lineage(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, chain)
}

// maxSaveBytes bounds a save request body (manifest + parameters).
const maxSaveBytes = 1 << 31 // 2 GiB

// IdempotencyKeyHeader lets a save be retried safely: a keyed save
// without an explicit set ID is stored under an ID derived from the
// key, so two saves with the same key to the same approach write one
// set, and later attempts are answered as replays.
const IdempotencyKeyHeader = "Idempotency-Key"

// ReplayHeader marks a save response that found its key's set already
// committed and wrote nothing.
const ReplayHeader = "Idempotent-Replay"

// SetIDHeader carries an explicit set ID for a save, overriding the
// manifest's set_id field. The cluster router sets it so one logical
// save lands under the same ID on every replica; header-over-manifest
// lets the router re-route a client-authored body without rewriting
// the multipart payload.
const SetIDHeader = "X-Mmm-Set-Id"

// setInfo reads a stored set's metadata through the approach's
// lineage.
func setInfo(a core.Approach, id string) (core.SetInfo, error) {
	l, ok := a.(core.Lineager)
	if !ok {
		return core.SetInfo{}, fmt.Errorf("approach does not expose set metadata")
	}
	chain, err := l.Lineage(id)
	if err != nil {
		return core.SetInfo{}, err
	}
	return chain[0], nil
}

// setCodec is the codec ID a stored set was saved with, best effort:
// "" when its metadata cannot be read.
func setCodec(a core.Approach, id string) string {
	info, _ := setInfo(a, id)
	return info.Codec
}

func (s *Server) handleSave(w http.ResponseWriter, r *http.Request) {
	a, ok := s.approach(w, r)
	if !ok {
		return
	}
	mr, err := r.MultipartReader()
	if err != nil {
		writeError(w, bodyStatus(err), fmt.Errorf("expected multipart body: %w", err))
		return
	}

	var manifest *Manifest
	var params []byte
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			writeError(w, bodyStatus(err), err)
			return
		}
		switch part.FormName() {
		case "manifest":
			manifest = &Manifest{}
			if err := json.NewDecoder(io.LimitReader(part, 1<<24)).Decode(manifest); err != nil {
				writeError(w, bodyStatus(err), fmt.Errorf("parsing manifest: %w", err))
				return
			}
		case "params":
			params, err = io.ReadAll(io.LimitReader(part, maxSaveBytes+1))
			if err != nil {
				writeError(w, bodyStatus(err), fmt.Errorf("reading params: %w", err))
				return
			}
			if len(params) > maxSaveBytes {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("params part exceeds %d bytes: %w", maxSaveBytes, core.ErrBudgetExceeded))
				return
			}
		}
	}
	if manifest == nil || manifest.Arch == nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing manifest part"))
		return
	}
	if manifest.Codec != "" && manifest.Codec != s.EffectiveCodec() {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Errorf("manifest asserts codec %q but this server stores with %q", manifest.Codec, s.EffectiveCodec()))
		return
	}
	set, err := setFromBytes(manifest.Arch, manifest.NumModels, params)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	setID := manifest.SetID
	if h := r.Header.Get(SetIDHeader); h != "" {
		setID = h
	}
	keyed := setID == "" && r.Header.Get(IdempotencyKeyHeader) != ""
	if keyed {
		setID = keySetID(r.Header.Get(IdempotencyKeyHeader))
	}
	res, err := a.SaveContext(r.Context(), core.SaveRequest{
		Set: set, Base: manifest.Base, SetID: setID,
		Updates: manifest.Updates, Train: manifest.Train,
	})
	if errors.Is(err, core.ErrSetExists) {
		s.answerTaken(w, a, setID, keyed, err)
		return
	}
	if err != nil {
		writeError(w, saveStatus(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, res)
}

// keySetID derives the ID a keyed save without an explicit ID is
// stored under: "k" and 32 hex digits of the key's SHA-256. The set ID
// is the only record of the save — a retry of the key finds its ID
// taken — and having no '-' keeps it apart from the sequential
// "<prefix>-NNNNNN" form.
func keySetID(key string) string {
	sum := sha256.Sum256([]byte(key))
	return "k" + hex.EncodeToString(sum[:16])
}

// answerTaken answers a save whose set ID is taken, by what is stored.
// A committed set is a replay for a key-derived ID — 201 with zero
// bytes and ops, since a replay writes nothing — and 409 set_exists
// for an explicit one. An ID only claimed by a first attempt that is
// still writing is a 503 the client retries: no caller is ever told a
// set exists before it has committed.
func (s *Server) answerTaken(w http.ResponseWriter, a core.Approach, setID string, keyed bool, err error) {
	committed, herr := s.HasSet(a, setID)
	switch {
	case herr != nil:
		writeError(w, http.StatusInternalServerError, herr)
	case !committed:
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server: set %q is still being saved", setID))
	case keyed:
		s.metrics.Counter(metricHTTPReplays).Inc()
		w.Header().Set(ReplayHeader, "true")
		writeJSON(w, http.StatusCreated, core.SaveResult{SetID: setID})
	default:
		writeError(w, http.StatusConflict, err)
	}
}

// bodyStatus maps a request-body read error onto an HTTP status: a
// body that hit the server's MaxBytesReader cap is 413, anything else
// malformed is 400.
func bodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) || strings.Contains(err.Error(), "request body too large") {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// saveStatus maps a save error onto an HTTP status. Disk-full is 507
// Insufficient Storage: the request was well-formed, the server simply
// cannot hold it — retryable once the operator frees space.
func saveStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrSetNotFound):
		return http.StatusNotFound
	case errors.Is(err, core.ErrBudgetExceeded):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, core.ErrSetExists):
		return http.StatusConflict
	case core.IsNoSpace(err):
		return http.StatusInsufficientStorage
	default:
		return http.StatusUnprocessableEntity
	}
}

// recoverStatus maps a recover error onto an HTTP status: unknown sets
// are 404, detected damage (a checksum mismatch, an artifact that is
// corrupt or gone from under its set) is a 500 — the data the server
// promised to keep is gone, which is a server fault, not a request
// fault — and everything else (foreign sets, malformed docs) is a 422.
func recoverStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrSetNotFound):
		return http.StatusNotFound
	case errors.Is(err, core.ErrChecksumMismatch), errors.Is(err, core.ErrCorruptBlob):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	a, ok := s.approach(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	partial := false
	switch v := r.URL.Query().Get("partial"); v {
	case "", "0", "false":
	case "1", "true":
		partial = true
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("invalid partial value %q", v))
		return
	}

	var manifest RecoveryManifest
	var params []byte
	rawIndices := r.URL.Query().Get("indices")
	if rawIndices != "" || partial {
		var indices []int
		var err error
		if rawIndices != "" {
			indices, err = parseIndices(rawIndices)
			if err != nil {
				writeError(w, http.StatusBadRequest, err)
				return
			}
		} else {
			// Degraded full recovery: resolve the set size and ask for
			// every model, so per-model failures turn into skips.
			info, err := setInfo(a, id)
			if err != nil {
				writeError(w, recoverStatus(err), err)
				return
			}
			indices = make([]int, info.NumModels)
			for i := range indices {
				indices[i] = i
			}
		}
		pr, ok := a.(core.PartialRecoverer)
		if !ok {
			writeError(w, http.StatusNotImplemented, fmt.Errorf("approach does not support selective recovery"))
			return
		}
		var opts []core.RecoverOption
		var report core.RecoveryReport
		if partial {
			opts = append(opts, core.WithPartialResults(&report))
		}
		rec, err := pr.RecoverModelsContext(r.Context(), id, indices, opts...)
		if err != nil {
			writeError(w, recoverStatus(err), err)
			return
		}
		sorted := make([]int, 0, len(rec.Models))
		for idx := range rec.Models {
			sorted = append(sorted, idx)
		}
		sort.Ints(sorted)
		manifest = RecoveryManifest{Arch: rec.Arch, NumModels: len(sorted), Indices: sorted, Codec: setCodec(a, id)}
		if partial {
			manifest.Report = &report
		}
		for _, idx := range sorted {
			params = rec.Models[idx].AppendParamBytes(params)
		}
	} else {
		set, err := a.RecoverContext(r.Context(), id)
		if err != nil {
			writeError(w, recoverStatus(err), err)
			return
		}
		manifest = RecoveryManifest{Arch: set.Arch, NumModels: set.Len(), Codec: setCodec(a, id)}
		params = setToBytes(set)
	}

	mw := multipart.NewWriter(w)
	w.Header().Set("Content-Type", mw.FormDataContentType())
	w.WriteHeader(http.StatusOK)
	mpart, err := mw.CreateFormField("manifest")
	if err == nil {
		err = json.NewEncoder(mpart).Encode(manifest)
	}
	if err == nil {
		var ppart io.Writer
		ppart, err = mw.CreateFormFile("params", "params.bin")
		if err == nil {
			_, err = ppart.Write(params)
		}
	}
	if err == nil {
		err = mw.Close()
	}
	if err != nil {
		// Headers are gone, so no status can signal the failure — but a
		// bare return would end the chunked body cleanly and the client
		// would mistake the truncated multipart for a complete response.
		// Aborting tears the connection down mid-body, which surfaces
		// client-side as a retryable transport error.
		panic(http.ErrAbortHandler)
	}
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	a, ok := s.approach(w, r)
	if !ok {
		return
	}
	v, ok := a.(core.Verifier)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("approach does not support verification"))
		return
	}
	issues, err := v.VerifyStore()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if issues == nil {
		issues = []core.Issue{}
	}
	writeJSON(w, http.StatusOK, issues)
}

// pruneRequest is the JSON body of a prune call.
type pruneRequest struct {
	Keep []string `json:"keep"`
}

func (s *Server) handlePrune(w http.ResponseWriter, r *http.Request) {
	a, ok := s.approach(w, r)
	if !ok {
		return
	}
	p, ok := a.(core.Pruner)
	if !ok {
		writeError(w, http.StatusNotImplemented, fmt.Errorf("approach does not support pruning"))
		return
	}
	var req pruneRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, bodyStatus(err), err)
		return
	}
	report, err := p.Prune(req.Keep)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, report)
}

// fsckRequest is the JSON body of a fsck call.
type fsckRequest struct {
	Repair bool `json:"repair"`
}

// handleFsck runs a store-wide integrity check across every approach's
// namespace — checksums, set completeness, orphan detection — and
// optionally deletes the orphans. Unlike /api/{approach}/verify, this
// is not scoped to one approach: crash debris has no owner.
func (s *Server) handleFsck(w http.ResponseWriter, r *http.Request) {
	var req fsckRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
			writeError(w, bodyStatus(err), err)
			return
		}
	}
	report, err := core.Fsck(s.stores, core.FsckOptions{Repair: req.Repair})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, report)
}

// handleDu reports storage occupancy — logical versus physical bytes
// per set and store-wide — across every approach's namespace. Like
// /api/fsck it is store-scoped: deduplicated chunks are shared across
// approaches, so per-approach accounting would double-count them.
func (s *Server) handleDu(w http.ResponseWriter, _ *http.Request) {
	report, err := core.Du(s.stores)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, report)
}

func (s *Server) handlePutDataset(w http.ResponseWriter, r *http.Request) {
	var spec dataset.Spec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		writeError(w, bodyStatus(err), err)
		return
	}
	id, err := s.stores.Datasets.Put(spec)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.stores.Datasets.IDs())
}

// parseIndices parses "1,5,42" into ints.
func parseIndices(raw string) ([]int, error) {
	parts := strings.Split(raw, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("invalid index %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// setToBytes serializes a set's parameters in the concatenated layout.
func setToBytes(set *core.ModelSet) []byte {
	buf := make([]byte, 0, set.Arch.ParamBytes()*set.Len())
	for _, m := range set.Models {
		buf = m.AppendParamBytes(buf)
	}
	return buf
}

// setFromBytes reconstructs a set from the concatenated layout.
func setFromBytes(arch *nn.Architecture, n int, data []byte) (*core.ModelSet, error) {
	if n <= 0 {
		return nil, fmt.Errorf("server: set needs a positive model count")
	}
	per := arch.ParamBytes()
	if len(data) != per*n {
		return nil, fmt.Errorf("server: params part has %d bytes, want %d (%d models × %d)",
			len(data), per*n, n, per)
	}
	set := &core.ModelSet{Arch: arch, Models: make([]*nn.Model, n)}
	for i := 0; i < n; i++ {
		m, err := nn.NewModelUninitialized(arch)
		if err != nil {
			return nil, err
		}
		if _, err := m.SetParamBytes(data[i*per : (i+1)*per]); err != nil {
			return nil, err
		}
		set.Models[i] = m
	}
	return set, nil
}
