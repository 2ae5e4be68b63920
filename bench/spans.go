package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mmm-go/mmm/internal/scrub"
	"github.com/mmm-go/mmm/internal/storage/backend"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own wrappers around the program's public seams. Op is the
// span of the caller operation (one save, recover or selective recover)
// the interval served, Parent the span that directly caused it. A
// layer's self time is its span minus the part its children cover.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Store  string `json:"store,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	Status string `json:"status,omitempty"`
	// Waited is how long a request queued for its node before Start.
	Waited int64 `json:"waited_ns,omitempty"`

	// token identifies one request on both sides of the router, which
	// forwards neither the span header nor a context.
	token string
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0   time.Time
	next atomic.Uint64
	mu   sync.Mutex
	all  []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) begin() (id uint64, start int64) { return r.next.Add(1), r.now() }

func (r *recorder) add(s span) {
	s.End = r.now()
	r.mu.Lock()
	r.all = append(r.all, s)
	r.mu.Unlock()
}

// spans returns the recorded spans with parents resolved.
func (r *recorder) spans() []span {
	r.mu.Lock()
	out := append([]span(nil), r.all...)
	r.mu.Unlock()
	link(out)
	return out
}

func (r *recorder) reset() {
	r.mu.Lock()
	r.all = nil
	r.mu.Unlock()
}

func status(err error) string {
	switch {
	case err == nil:
		return ""
	case backend.IsNotFound(err):
		return "notfound"
	default:
		return "error"
	}
}

// ---- caller operations ----------------------------------------------

type opKey struct{}

// startOp opens the span of one caller operation and returns a context
// that carries it to the HTTP seam.
func (r *recorder) startOp(ctx context.Context, name string) (context.Context, func(error)) {
	id, start := r.begin()
	ctx = context.WithValue(ctx, opKey{}, id)
	return ctx, func(err error) {
		r.add(span{ID: id, Op: id, Name: "op." + name, Node: localNode, Start: start, Status: status(err)})
	}
}

func opFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(opKey{}).(uint64)
	return id
}

// localNode labels spans recorded in the caller's own process half:
// operations, and the stores of the workloads that have no server.
const localNode = "local"

// ---- backend.Backend ------------------------------------------------

// tracedBackend times every call into a storage backend. The interface
// carries no context, so parents are found afterwards by containment.
type tracedBackend struct {
	inner       backend.Backend
	rec         *recorder
	node, store string
}

func (r *recorder) backend(inner backend.Backend, node, store string) backend.Backend {
	return &tracedBackend{inner: inner, rec: r, node: node, store: store}
}

func (b *tracedBackend) record(name string, id uint64, start, bytes int64, err error) {
	b.rec.add(span{ID: id, Name: "backend." + name, Node: b.node, Store: b.store,
		Start: start, Bytes: bytes, Status: status(err)})
}

func (b *tracedBackend) Put(key string, data []byte) error {
	id, start := b.rec.begin()
	err := b.inner.Put(key, data)
	b.record("put", id, start, int64(len(data)), err)
	return err
}

func (b *tracedBackend) Get(key string) ([]byte, error) {
	id, start := b.rec.begin()
	data, err := b.inner.Get(key)
	b.record("get", id, start, int64(len(data)), err)
	return data, err
}

func (b *tracedBackend) GetRange(key string, off, length int64) ([]byte, error) {
	id, start := b.rec.begin()
	data, err := b.inner.GetRange(key, off, length)
	b.record("getrange", id, start, int64(len(data)), err)
	return data, err
}

func (b *tracedBackend) Size(key string) (int64, error) {
	id, start := b.rec.begin()
	n, err := b.inner.Size(key)
	b.record("size", id, start, 0, err)
	return n, err
}

func (b *tracedBackend) Delete(key string) error {
	id, start := b.rec.begin()
	err := b.inner.Delete(key)
	b.record("delete", id, start, 0, err)
	return err
}

func (b *tracedBackend) Keys() ([]string, error) {
	id, start := b.rec.begin()
	keys, err := b.inner.Keys()
	b.record("keys", id, start, 0, err)
	return keys, err
}

// ---- http.RoundTripper and http.Handler -----------------------------

// spanHeader carries "op/span" from the client's transport to the first
// handler that serves the request.
const spanHeader = "X-Bench-Span"

// route names the API route of a request the way the per-layer metrics
// group them.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case strings.HasPrefix(p, "/api/cas/recipe/"):
		return "recipe"
	case strings.HasPrefix(p, "/api/cas/chunk/"):
		return "chunk"
	case strings.HasPrefix(p, "/api/cluster/"):
		return "sync"
	case strings.HasSuffix(p, "/params"):
		return "recover"
	case r.Method == http.MethodPost && strings.HasSuffix(p, "/sets"):
		return "save"
	default:
		return "other"
	}
}

// requestToken is what a request keeps while the router forwards it: the
// idempotency key of a save, the path and query of a read.
func requestToken(r *http.Request) string {
	if k := r.Header.Get("Idempotency-Key"); k != "" {
		return k
	}
	return r.URL.RequestURI()
}

// tracedTransport times each request from send until the response body
// is closed, and counts the body bytes the client received.
type tracedTransport struct {
	inner http.RoundTripper
	rec   *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, start := t.rec.begin()
	op := opFrom(req.Context())
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", op, id))
	s := span{ID: id, Parent: op, Op: op, Name: "http." + route(req), Node: localNode, Start: start}
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		s.Status = "error"
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, rec: t.rec, span: s}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	rec  *recorder
	span span
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.span.Bytes += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.rec.add(b.span) })
	return err
}

// tracedHandler times one server's (layer "handler") or the router's
// (layer "router") handling of each request.
//
// A node's backend calls carry no request identity, so while oneAtATime
// is set the handler admits one request at a time: every backend span on
// the node then lies inside exactly one handler span. The time a request
// waited for its turn is recorded on its span, not in its duration. The
// traced run is therefore a node that serves requests serially; what
// overlapping requests cost each other is the untraced run's to measure.
type tracedHandler struct {
	inner       http.Handler
	rec         *recorder
	layer, node string
	oneAtATime  *atomic.Bool
	turn        sync.Mutex
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	arrived := h.rec.now()
	if h.oneAtATime != nil && h.oneAtATime.Load() {
		h.turn.Lock()
		defer h.turn.Unlock()
	}
	id, start := h.rec.begin()
	s := span{ID: id, Name: h.layer + "." + route(r), Node: h.node, Start: start, Waited: start - arrived, token: requestToken(r)}
	_, _ = fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &s.Op, &s.Parent)
	h.inner.ServeHTTP(w, r)
	h.rec.add(s)
}

// ---- scrub.ChunkFetcher ---------------------------------------------

type tracedFetcher struct {
	inner scrub.ChunkFetcher
	rec   *recorder
}

func (f *tracedFetcher) FetchChunk(ctx context.Context, hash string, size int64) ([]byte, error) {
	id, start := f.rec.begin()
	data, err := f.inner.FetchChunk(ctx, hash, size)
	f.rec.add(span{ID: id, Name: "fetch.chunk", Node: "peer", Start: start, Bytes: int64(len(data)), Status: status(err)})
	return data, err
}

// ---- resolving parents ----------------------------------------------

// link fills in the parents the seams could not pass along. A node's
// handler span that arrived without the span header was forwarded by
// the router: its parent is the router span with the same request token
// that contains it. A backend span's parent is the one handler span on
// its node (or the one caller operation, for a local store) that
// contains it; when two requests overlap on a node the backend span
// stays unattributed rather than being guessed.
func link(spans []span) {
	byToken := map[string]*candidates{}
	owners := map[string]*candidates{}
	add := func(m map[string]*candidates, key string, s *span) {
		if m[key] == nil {
			m[key] = &candidates{}
		}
		m[key].spans = append(m[key].spans, s)
	}
	for i := range spans {
		s := &spans[i]
		switch {
		case strings.HasPrefix(s.Name, "router."):
			add(byToken, s.token, s)
		case strings.HasPrefix(s.Name, "handler."), strings.HasPrefix(s.Name, "op."):
			add(owners, s.Node, s)
		}
	}
	for i := range spans {
		s := &spans[i]
		if strings.HasPrefix(s.Name, "handler.") && s.Parent == 0 {
			if p := byToken[s.token].onlyContaining(s); p != nil {
				s.Parent, s.Op = p.ID, p.Op
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if strings.HasPrefix(s.Name, "backend.") {
			if p := owners[s.Node].onlyContaining(s); p != nil {
				s.Parent, s.Op = p.ID, p.Op
			}
		}
	}
}

// candidates is a set of possible parents, indexed on first use: sorted
// by start, with the latest end of every prefix so a search can stop.
type candidates struct {
	spans  []*span
	maxEnd []int64
}

// onlyContaining returns the single candidate whose interval contains
// s, or nil when none or several do.
func (c *candidates) onlyContaining(s *span) *span {
	if c == nil {
		return nil
	}
	if c.maxEnd == nil {
		sort.Slice(c.spans, func(i, j int) bool { return c.spans[i].Start < c.spans[j].Start })
		c.maxEnd = make([]int64, len(c.spans))
		var m int64
		for i, p := range c.spans {
			if p.End > m {
				m = p.End
			}
			c.maxEnd[i] = m
		}
	}
	var found *span
	i := sort.Search(len(c.spans), func(i int) bool { return c.spans[i].Start > s.Start })
	for i--; i >= 0 && c.maxEnd[i] >= s.End; i-- {
		if c.spans[i].End >= s.End {
			if found != nil {
				return nil
			}
			found = c.spans[i]
		}
	}
	return found
}

// writeTrace writes the spans of one workload as JSON.
func writeTrace(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	data, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{traceSchema, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

const traceSchema = "mmm-bench-trace/1"
