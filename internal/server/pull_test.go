package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/netchaos"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

// newDedupRig starts a server whose approaches write through the CAS
// layer, so saved sets are chunk-addressed and pull-servable.
func newDedupRig(t *testing.T, reg *obs.Registry) (*Client, core.Stores) {
	t.Helper()
	stores := core.NewMemStores()
	if reg == nil {
		reg = obs.New()
	}
	ts := httptest.NewServer(NewWithMetrics(stores, reg, core.WithDedup()))
	t.Cleanup(ts.Close)
	return &Client{BaseURL: ts.URL, Reg: obs.New()}, stores
}

// memPullCache returns a PullCache over a fresh in-memory store.
func memPullCache() *PullCache {
	return NewPullCache(blobstore.New(backend.NewMem(), latency.CostModel{}, nil))
}

func TestPullRecoverRoundTrip(t *testing.T) {
	ctx := context.Background()
	c, _ := newDedupRig(t, nil)
	c.Cache = memPullCache()
	set := testSet(t, 12)
	res, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(ctx, "baseline", res.SetID)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Equal(got) {
		t.Fatal("pull recovery lost data")
	}
	if n := c.Reg.Counter(MetricPullChunksFetched).Value(); n == 0 {
		t.Fatal("recovery did not use the pull protocol")
	}
	if n := c.Reg.Counter(MetricPullFallbacks).Value(); n != 0 {
		t.Fatalf("%s = %d, want 0", MetricPullFallbacks, n)
	}

	// Second recovery: every chunk is cached, nothing fetched.
	fetched := c.Reg.Counter(MetricPullChunksFetched).Value()
	got2, err := c.Recover(ctx, "baseline", res.SetID)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Equal(got2) {
		t.Fatal("cached pull recovery lost data")
	}
	if n := c.Reg.Counter(MetricPullChunksFetched).Value(); n != fetched {
		t.Fatalf("warm re-pull fetched %d chunks, want 0", n-fetched)
	}
	if n := c.Reg.Counter(MetricPullCacheHits).Value(); n == 0 {
		t.Fatal("warm re-pull recorded no cache hits")
	}
}

func TestPullRecoverWithoutCache(t *testing.T) {
	ctx := context.Background()
	c, _ := newDedupRig(t, nil)
	set := testSet(t, 6)
	res, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(ctx, "baseline", res.SetID)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Equal(got) {
		t.Fatal("cacheless pull recovery lost data")
	}
	if n := c.Reg.Counter(MetricPullChunksFetched).Value(); n == 0 {
		t.Fatal("recovery did not use the pull protocol")
	}
}

// TestPullWarmCacheFetchesOnlyChangedChunks is the protocol's point:
// re-pulling a lightly mutated set transfers O(changed chunks), not
// O(set).
func TestPullWarmCacheFetchesOnlyChangedChunks(t *testing.T) {
	ctx := context.Background()
	c, _ := newDedupRig(t, nil)
	c.Cache = memPullCache()
	// Realistically sized models (~19 KB each), so the fixed manifest
	// cost does not dominate the byte accounting being asserted.
	set, err := core.NewModelSet(nn.FFNN("pull-warm", 64, []int{64}, 8), 16, 77)
	if err != nil {
		t.Fatal(err)
	}
	res1, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(ctx, "baseline", res1.SetID); err != nil {
		t.Fatal(err)
	}
	coldBytes := c.Reg.Counter(MetricPullBytes).Value()
	coldChunks := c.Reg.Counter(MetricPullChunksFetched).Value()

	// Mutate exactly one model and save the result as a new set.
	mutated, err := core.NewModelSet(nn.FFNN("pull-warm", 64, []int{64}, 8), 16, 77)
	if err != nil {
		t.Fatal(err)
	}
	pb := mutated.Models[3].AppendParamBytes(nil)
	for i := range pb {
		pb[i] ^= 0x5a
	}
	if _, err := mutated.Models[3].SetParamBytes(pb); err != nil {
		t.Fatal(err)
	}
	res2, err := c.Save(ctx, "baseline", mutated, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(ctx, "baseline", res2.SetID)
	if err != nil {
		t.Fatal(err)
	}
	if !mutated.Equal(got) {
		t.Fatal("warm pull recovery lost data")
	}
	warmChunks := c.Reg.Counter(MetricPullChunksFetched).Value() - coldChunks
	warmBytes := c.Reg.Counter(MetricPullBytes).Value() - coldBytes
	if warmChunks != 1 {
		t.Fatalf("warm re-pull fetched %d chunks, want 1 (only the mutated model)", warmChunks)
	}
	// The acceptance bar: changed chunks + recipe under 10% of the
	// full-set transfer.
	if coldBytes == 0 || warmBytes*10 > coldBytes {
		t.Fatalf("warm re-pull moved %d bytes vs %d cold — not O(changed chunks)", warmBytes, coldBytes)
	}
}

func TestPullSelectiveRecovery(t *testing.T) {
	ctx := context.Background()
	c, _ := newDedupRig(t, nil)
	c.Cache = memPullCache()
	set := testSet(t, 10)
	res, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := c.RecoverModels(ctx, "baseline", res.SetID, []int{2, 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Models) != 2 {
		t.Fatalf("recovered %d models, want 2", len(pr.Models))
	}
	for _, idx := range []int{2, 7} {
		if !pr.Models[idx].ParamsEqual(set.Models[idx]) {
			t.Fatalf("model %d recovered incorrectly", idx)
		}
	}
	// Per-model chunking: two models = two chunks, nothing more.
	if n := c.Reg.Counter(MetricPullChunksFetched).Value(); n != 2 {
		t.Fatalf("selective pull fetched %d chunks, want 2", n)
	}
	if _, err := c.RecoverModels(ctx, "baseline", res.SetID, []int{99}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

// TestPullFallsBackToMultipart covers the compatibility paths: sets
// saved without dedup, approaches without a single params blob, and
// servers that predate the protocol must all recover via the multipart
// path, transparently.
func TestPullFallsBackToMultipart(t *testing.T) {
	ctx := context.Background()

	t.Run("non-dedup store", func(t *testing.T) {
		c, _ := newTestRig(t)
		c.Reg = obs.New()
		set := testSet(t, 5)
		res, err := c.Save(ctx, "baseline", set, "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Recover(ctx, "baseline", res.SetID)
		if err != nil {
			t.Fatal(err)
		}
		if !set.Equal(got) {
			t.Fatal("fallback recovery lost data")
		}
		if n := c.Reg.Counter(MetricPullFallbacks).Value(); n != 1 {
			t.Fatalf("%s = %d, want 1", MetricPullFallbacks, n)
		}
	})

	t.Run("per-model approach", func(t *testing.T) {
		c, _ := newDedupRig(t, nil)
		set := testSet(t, 4)
		res, err := c.Save(ctx, "mmlib", set, "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Recover(ctx, "mmlib", res.SetID)
		if err != nil {
			t.Fatal(err)
		}
		if !set.Equal(got) {
			t.Fatal("mmlib fallback recovery lost data")
		}
		if n := c.Reg.Counter(MetricPullFallbacks).Value(); n != 1 {
			t.Fatalf("%s = %d, want 1", MetricPullFallbacks, n)
		}
	})

	t.Run("pre-protocol server", func(t *testing.T) {
		// A mux without the cas routes answers the recipe probe with a
		// plain 404 — no JSON envelope, no code.
		stores := core.NewMemStores()
		api := New(stores)
		old := http.NewServeMux()
		old.HandleFunc("GET /api/{approach}/sets/{id}/params", api.handleRecover)
		old.HandleFunc("POST /api/{approach}/sets", api.handleSave)
		ts := httptest.NewServer(old)
		t.Cleanup(ts.Close)
		c := &Client{BaseURL: ts.URL, Reg: obs.New()}

		set := testSet(t, 5)
		res, err := c.Save(ctx, "baseline", set, "", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Recover(ctx, "baseline", res.SetID)
		if err != nil {
			t.Fatal(err)
		}
		if !set.Equal(got) {
			t.Fatal("old-server fallback recovery lost data")
		}
	})

	t.Run("unknown set stays not-found", func(t *testing.T) {
		c, _ := newDedupRig(t, nil)
		_, err := c.Recover(ctx, "baseline", "bl-999999")
		if !errors.Is(err, core.ErrSetNotFound) {
			t.Fatalf("recovering unknown set: %v, want ErrSetNotFound", err)
		}
	})
}

// pullManifestFor fetches and decodes a set's pull manifest directly.
func pullManifestFor(t *testing.T, c *Client, approach, setID string) *PullManifest {
	t.Helper()
	resp, err := http.Get(c.BaseURL + "/api/cas/recipe/" + approach + "/" + setID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recipe endpoint: HTTP %d", resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodePullManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPullRecipeEndpointEnvelopes(t *testing.T) {
	ctx := context.Background()
	c, _ := newDedupRig(t, nil)
	set := testSet(t, 8)
	res, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := pullManifestFor(t, c, "baseline", res.SetID)
	if m.NumModels != 8 || len(m.Chunks) != 8 {
		t.Fatalf("manifest: %d models, %d chunks, want 8 and 8", m.NumModels, len(m.Chunks))
	}
	if m.Size != int64(set.Arch.ParamBytes())*8 {
		t.Fatalf("manifest size = %d", m.Size)
	}

	check := func(path, wantCode string, wantStatus int) {
		t.Helper()
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: HTTP %d, want %d", path, resp.StatusCode, wantStatus)
		}
		var e httpError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("GET %s: not a JSON envelope: %v", path, err)
		}
		if e.Code != wantCode {
			t.Fatalf("GET %s: code %q, want %q", path, e.Code, wantCode)
		}
	}
	check("/api/cas/recipe/baseline/no-such-set", codeSetNotFound, http.StatusNotFound)
	check("/api/cas/recipe/mmlib/"+saveVia(t, c, "mmlib"), codePullUnavailable, http.StatusNotFound)

	// A set saved without dedup on the same server: the recipe probe
	// says pull_unavailable, not not-found.
	plain, stores := newTestRig(t)
	_ = stores
	set2 := testSet(t, 3)
	res2, err := plain.Save(ctx, "baseline", set2, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(plain.BaseURL + "/api/cas/recipe/baseline/" + res2.SetID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e httpError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound || e.Code != codePullUnavailable {
		t.Fatalf("non-dedup recipe: HTTP %d code %q, want 404 %q", resp.StatusCode, e.Code, codePullUnavailable)
	}
}

// saveVia saves a small set under the approach and returns its ID.
func saveVia(t *testing.T, c *Client, approach string) string {
	t.Helper()
	res, err := c.Save(context.Background(), approach, testSet(t, 3), "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.SetID
}

func TestChunkEndpointEdgeCases(t *testing.T) {
	ctx := context.Background()
	c, _ := newDedupRig(t, nil)
	set := testSet(t, 4)
	res, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := pullManifestFor(t, c, "baseline", res.SetID)
	ch := m.Chunks[0]
	url := fmt.Sprintf("%s/api/cas/chunk/%s?s=%d", c.BaseURL, ch.Hash, ch.Size)

	get := func(rangeHeader string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rangeHeader != "" {
			req.Header.Set("Range", rangeHeader)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Whole chunk: body must be the logical bytes of the first model.
	resp := get("")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk GET: HTTP %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := set.Models[0].AppendParamBytes(nil)
	if string(body) != string(want) {
		t.Fatal("chunk body is not the model's parameter bytes")
	}

	// Mid-chunk range: exactly what a resume asks for.
	resp = get(fmt.Sprintf("bytes=%d-", ch.Size/2))
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("ranged chunk GET: HTTP %d, want 206", resp.StatusCode)
	}
	if start, ok := contentRangeStart(resp.Header.Get("Content-Range")); !ok || start != ch.Size/2 {
		t.Fatalf("Content-Range = %q", resp.Header.Get("Content-Range"))
	}
	part, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(part) != string(want[ch.Size/2:]) {
		t.Fatal("ranged chunk body mismatch")
	}

	// Range past EOF: 416, not data.
	resp = get(fmt.Sprintf("bytes=%d-", ch.Size+10))
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("past-EOF range: HTTP %d, want 416", resp.StatusCode)
	}

	// Overlapping multi-range: served as multipart/byteranges with both
	// parts intact.
	resp = get("bytes=0-9,5-14")
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("multi-range: HTTP %d, want 206", resp.StatusCode)
	}
	if mt := resp.Header.Get("Content-Type"); !strings.HasPrefix(mt, "multipart/byteranges") {
		t.Fatalf("multi-range content type = %q", mt)
	}

	// Unknown digest: 404 with a JSON envelope.
	fake := strings.Repeat("ab", 32)
	resp2, err := http.Get(fmt.Sprintf("%s/api/cas/chunk/%s?s=64", c.BaseURL, fake))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown digest: HTTP %d, want 404", resp2.StatusCode)
	}
	var e httpError
	if err := json.NewDecoder(resp2.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("unknown digest: not a JSON envelope (%v, %+v)", err, e)
	}

	// Malformed digest and missing size are client errors.
	for _, bad := range []string{
		"/api/cas/chunk/nothex?s=64",
		"/api/cas/chunk/" + strings.Repeat("AB", 32) + "?s=64", // uppercase
		"/api/cas/chunk/" + ch.Hash,                            // no ?s=
		fmt.Sprintf("/api/cas/chunk/%s?s=-3", ch.Hash),
	} {
		resp, err := http.Get(c.BaseURL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}
}

// corruptingTransport flips a byte in the body of the first N chunk
// responses, leaving everything else untouched.
type corruptingTransport struct {
	base    http.RoundTripper
	mu      sync.Mutex // chunk fetches run in parallel
	remain  int
	touched int
}

func (tr *corruptingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || !strings.Contains(req.URL.Path, "/api/cas/chunk/") {
		return resp, err
	}
	tr.mu.Lock()
	corrupt := tr.remain > 0
	if corrupt {
		tr.remain--
		tr.touched++
	}
	tr.mu.Unlock()
	if !corrupt {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if len(body) > 0 {
		body[0] ^= 0xff
	}
	resp.Body = io.NopCloser(strings.NewReader(string(body)))
	return resp, nil
}

// TestPullDigestMismatchDiscardsAndRefetches: a chunk body that does
// not hash to its address is discarded and refetched from scratch; the
// bad bytes never reach the cache or the caller.
func TestPullDigestMismatchDiscardsAndRefetches(t *testing.T) {
	ctx := context.Background()
	c, _ := newDedupRig(t, nil)
	c.Cache = memPullCache()
	c.Retry = fastRetry()
	tr := &corruptingTransport{remain: 1}
	c.HTTP = &http.Client{Transport: tr}

	set := testSet(t, 6)
	res, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(ctx, "baseline", res.SetID)
	if err != nil {
		t.Fatalf("recover through corruption: %v", err)
	}
	if !set.Equal(got) {
		t.Fatal("recovery returned corrupt data")
	}
	if tr.touched != 1 {
		t.Fatalf("corrupted %d responses, want 1", tr.touched)
	}
	if n := c.Reg.Counter(MetricPullDigestMismatches).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", MetricPullDigestMismatches, n)
	}
	// Every cached chunk must round-trip its digest (PutChunk verifies
	// on write; Get verifies on read — a poisoned cache would fail).
	m := pullManifestFor(t, c, "baseline", res.SetID)
	for _, ch := range m.Chunks {
		if _, err := c.Cache.Get(ch.Hash, ch.Size); err != nil {
			t.Fatalf("cache holds bad chunk %s: %v", ch.Hash, err)
		}
	}
}

// TestChaosPullResumesMidChunk: a connection reset mid-chunk-body must
// be resumed with a Range request from the received offset — and the
// reassembled set must be byte-identical.
func TestChaosPullResumesMidChunk(t *testing.T) {
	ctx := context.Background()
	c, _ := newDedupRig(t, nil)
	c.Cache = memPullCache()
	c.Retry = fastRetry()
	c.PullWorkers = 1 // deterministic chunk order for the script

	set := testSet(t, 4)
	res, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Script: the recipe GET passes, then the first two chunk transfers
	// are cut mid-body.
	tr := netchaos.NewTransport(nil, netchaos.Config{
		Script: []netchaos.Fault{netchaos.FaultNone, netchaos.FaultTruncate, netchaos.FaultTruncate},
	})
	c.HTTP = &http.Client{Transport: tr}

	got, err := c.Recover(ctx, "baseline", res.SetID)
	if err != nil {
		t.Fatalf("recover through mid-chunk resets: %v", err)
	}
	if !set.Equal(got) {
		t.Fatal("resumed recovery lost data")
	}
	if n := c.Reg.Counter(MetricPullResumes).Value(); n < 1 {
		t.Fatalf("%s = %d, want >= 1", MetricPullResumes, n)
	}
	if tr.Injected() < 2 {
		t.Fatalf("injected %d faults, want >= 2", tr.Injected())
	}
}

// TestChaosPullThroughBusyBursts: 503 bursts with Retry-After on chunk
// fetches are absorbed by the per-chunk retry loop.
func TestChaosPullThroughBusyBursts(t *testing.T) {
	ctx := context.Background()
	c, _ := newDedupRig(t, nil)
	c.Cache = memPullCache()
	c.Retry = fastRetry()

	set := testSet(t, 6)
	res, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := netchaos.NewTransport(nil, netchaos.Config{
		Seed: 42, ServerBusy: 0.3, MaxFaults: 3,
	})
	c.HTTP = &http.Client{Transport: tr}
	got, err := c.Recover(ctx, "baseline", res.SetID)
	if err != nil {
		t.Fatalf("recover through 503 bursts: %v", err)
	}
	if !set.Equal(got) {
		t.Fatal("recovery through 503 bursts lost data")
	}
}

func TestDecodePullManifestRejectsDamage(t *testing.T) {
	ctx := context.Background()
	c, _ := newDedupRig(t, nil)
	res, err := c.Save(ctx, "baseline", testSet(t, 4), "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.BaseURL + "/api/cas/recipe/baseline/" + res.SetID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	good, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePullManifest(good); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}

	var m PullManifest
	if err := json.Unmarshal(good, &m); err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func(*PullManifest)) {
		t.Helper()
		bad := m
		bad.Chunks = append([]PullChunk(nil), m.Chunks...)
		f(&bad)
		data, err := json.Marshal(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodePullManifest(data); err == nil {
			t.Fatalf("%s: corrupt manifest accepted", name)
		}
	}
	mutate("no models", func(m *PullManifest) { m.NumModels = 0 })
	mutate("size mismatch", func(m *PullManifest) { m.Size++ })
	mutate("no chunks", func(m *PullManifest) { m.Chunks = nil; m.Size = 0 })
	mutate("bad digest", func(m *PullManifest) { m.Chunks[0].Hash = "xyz" })
	mutate("uppercase digest", func(m *PullManifest) {
		m.Chunks[0].Hash = strings.ToUpper(m.Chunks[0].Hash)
	})
	mutate("chunk overrun", func(m *PullManifest) { m.Chunks[0].Size = m.Size + 1 })
	mutate("short sum", func(m *PullManifest) { m.Chunks = m.Chunks[:len(m.Chunks)-1] })
	mutate("zero chunk", func(m *PullManifest) { m.Chunks[0].Size = 0 })
	mutate("no arch", func(m *PullManifest) { m.Arch = nil })
	if _, err := DecodePullManifest([]byte("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}
