package server

import (
	"slices"
	"time"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// Service is the store-service layer of a node: the management
// approaches over their stores and the save-time policy (codec,
// dedup) — everything about WHAT the node stores, with no opinion
// about how requests arrive. Server wraps a Service in the HTTP
// transport (mux routing plus the Gate middleware); the cluster router
// proxies to remote Services over the wire. The split is what lets
// transport-level guarantees — per-route metrics, body caps,
// deadlines, drain — apply uniformly to local and routed endpoints
// instead of living tangled inside one handler type.
type Service struct {
	stores     core.Stores
	cas        *cas.Store // stores.Blobs' chunk layer: pull endpoints and the sync cache
	approaches map[string]core.Approach
	codecID    string // Config.Codec: "" stores raw
	dedup      bool   // Config.Dedup: chunk-level CAS on saves
}

// NewService builds the store-service layer over stores: every
// registered approach under its core.ApproachNames name, instrumented into
// reg, configured from cfg (codec, dedup, chunk cache) plus any extra
// core options.
func NewService(stores core.Stores, reg *obs.Registry, cfg Config, opts ...core.Option) *Service {
	if reg == nil {
		reg = obs.Default
	}
	opts = append([]core.Option{core.WithMetrics(reg)}, opts...)
	if cfg.Codec != "" {
		opts = append(opts, core.WithCodec(cfg.Codec))
	}
	if cfg.CacheBytes > 0 {
		opts = append(opts, core.WithChunkCache(cfg.CacheBytes))
	}
	if cfg.Dedup {
		opts = append(opts, core.WithDedup())
	}
	approaches := map[string]core.Approach{}
	for _, name := range core.ApproachNames() {
		// Open only fails for names outside ApproachNames.
		approaches[name], _ = core.Open(name, stores, opts...)
	}
	return &Service{
		stores:     stores,
		cas:        cas.For(stores.Blobs),
		approaches: approaches,
		codecID:    cfg.Codec,
		dedup:      cfg.Dedup,
	}
}

// Stores exposes the underlying stores (read-only access for callers
// like the sync path that need the CAS layer).
func (s *Service) Stores() core.Stores { return s.stores }

// Approach returns the named approach, or nil.
func (s *Service) Approach(name string) core.Approach { return s.approaches[name] }

// ApproachNames lists the registered approach names, unsorted.
func (s *Service) ApproachNames() []string {
	names := make([]string, 0, len(s.approaches))
	for n := range s.approaches {
		names = append(names, n)
	}
	return names
}

// EffectiveCodec is the codec ID new saves are stored with, "none"
// when unconfigured, so clients can assert against a stable name.
func (s *Service) EffectiveCodec() string {
	if s.codecID == "" {
		return "none"
	}
	return s.codecID
}

// Dedup reports whether saves go through the chunk-level CAS layer.
func (s *Service) Dedup() bool { return s.dedup }

// HasSet reports whether approach a locally stores setID, resolved
// through the approach's set listing.
func (s *Service) HasSet(a core.Approach, setID string) (bool, error) {
	l, ok := a.(interface{ SetIDs() ([]string, error) })
	if !ok {
		return false, nil
	}
	ids, err := l.SetIDs()
	return slices.Contains(ids, setID), err
}

// Drainer is anything with one-way drain semantics — Server and the
// cluster router both satisfy it, so ServeListener's graceful shutdown
// works for either.
type Drainer interface {
	// BeginDrain flips the server into drain mode: readiness fails and
	// new work is rejected while in-flight requests finish.
	BeginDrain()
}

// normalizeConfig applies Config defaults shared by Server and Router.
func normalizeConfig(cfg Config) Config {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	return cfg
}
