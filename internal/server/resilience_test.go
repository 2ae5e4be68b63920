package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/netchaos"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/docstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
	"github.com/mmm-go/mmm/internal/storage/sim"
)

// fastRetry keeps chaos tests quick: real backoff shapes are covered
// by TestRetryPolicyDelay.
func fastRetry() *RetryPolicy {
	return &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 7}
}

// newConfigRig starts a server built with NewWithConfig and returns a
// client, the Server (for BeginDrain), and its stores.
func newConfigRig(t *testing.T, reg *obs.Registry, cfg Config) (*Client, *Server, core.Stores) {
	t.Helper()
	stores := core.NewMemStores()
	api := NewWithConfig(stores, reg, cfg)
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return &Client{BaseURL: ts.URL}, api, stores
}

func TestReadyzFlipsOnDrain(t *testing.T) {
	ctx := context.Background()
	reg := obs.New()
	c, api, _ := newConfigRig(t, reg, Config{})

	if err := c.Ready(ctx); err != nil {
		t.Fatalf("fresh server not ready: %v", err)
	}
	if err := c.WaitReady(ctx, time.Second); err != nil {
		t.Fatalf("WaitReady on fresh server: %v", err)
	}

	api.BeginDrain()
	if !api.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	if err := c.Ready(ctx); err == nil {
		t.Fatal("Ready succeeded on draining server")
	}
	if err := c.WaitReady(ctx, 300*time.Millisecond); err == nil {
		t.Fatal("WaitReady succeeded on draining server")
	}

	// API requests are rejected with 503 + Retry-After…
	resp, err := http.Get(c.BaseURL + "/api/approaches")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("API during drain: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 during drain is missing Retry-After")
	}

	// …while liveness and metrics stay up for the orchestrator.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s during drain: status = %d, want 200", path, resp.StatusCode)
		}
	}
	if got := reg.Counter(metricHTTPDrained).Value(); got < 1 {
		t.Fatalf("%s = %d, want >= 1", metricHTTPDrained, got)
	}
	// The drain rejections themselves must show up in /metrics.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, metricHTTPDrained) {
		t.Fatalf("/metrics during drain does not expose %s:\n%s", metricHTTPDrained, text)
	}
}

func TestRequestLimitsAndErrorEnvelopes(t *testing.T) {
	ctx := context.Background()
	c, _, _ := newConfigRig(t, nil, Config{MaxBodyBytes: 1024})

	// Oversized multipart save → 413.
	set := testSet(t, 200) // ~40 KB of params, far over the 1 KB cap
	if _, err := c.Save(ctx, "baseline", set, "", nil, nil); err == nil {
		t.Fatal("oversized save accepted")
	} else if !strings.Contains(err.Error(), "HTTP 413") {
		t.Fatalf("oversized save: err = %v, want HTTP 413", err)
	}

	// Oversized JSON body → 413 with a JSON error envelope.
	big := `{"keep": ["` + strings.Repeat("x", 2048) + `"]}`
	resp, err := http.Post(c.BaseURL+"/api/baseline/prune", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, resp, http.StatusRequestEntityTooLarge)

	// Malformed JSON (under the cap) → 400 with a JSON error envelope.
	resp, err = http.Post(c.BaseURL+"/api/baseline/prune", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, resp, http.StatusBadRequest)

	resp, err = http.Post(c.BaseURL+"/api/fsck", "application/json", strings.NewReader("]["))
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(t, resp, http.StatusBadRequest)
}

// checkEnvelope asserts an error response carries the expected status
// and a JSON body with a non-empty "error" field.
func checkEnvelope(t *testing.T, resp *http.Response, wantStatus int) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("error response Content-Type = %q, want JSON", ct)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error response is not a JSON envelope: %v", err)
	}
	if env.Error == "" {
		t.Fatal("error envelope has empty error field")
	}
}

func TestChaosSaveExactlyOnceAcrossResets(t *testing.T) {
	ctx := context.Background()
	serverReg := obs.New()
	clientReg := obs.New()
	c, _, _ := newConfigRig(t, serverReg, Config{})

	// Attempt 1: the server processes the save fully but the response
	// is lost — the canonical duplicate-write trap. Attempt 2: reset
	// before the request. Attempt 3: clean, answered as a replay of the
	// committed set.
	tr := netchaos.NewTransport(nil, netchaos.Config{
		Script: []netchaos.Fault{netchaos.FaultDropResponse, netchaos.FaultReset},
	})
	c.HTTP = &http.Client{Transport: tr}
	c.Retry = fastRetry()
	c.Reg = clientReg

	set := testSet(t, 6)
	res, err := c.SaveWithKey(ctx, "baseline", "exactly-once-test", set, "", nil, nil)
	if err != nil {
		t.Fatalf("save across resets: %v", err)
	}
	if tr.Injected() != 2 {
		t.Fatalf("injected faults = %d, want 2", tr.Injected())
	}

	// The set must exist exactly once, and round-trip intact.
	c.HTTP = nil // clean connection for verification
	ids, err := c.List(ctx, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != res.SetID {
		t.Fatalf("after retried save: sets = %v, want exactly [%s]", ids, res.SetID)
	}
	got, err := c.Recover(ctx, "baseline", res.SetID)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Equal(got) {
		t.Fatal("retried save lost data")
	}

	// Attempt 3 must have been a replay, not a re-execution.
	if n := serverReg.Counter(metricHTTPReplays).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", metricHTTPReplays, n)
	}
	if n := clientReg.Counter(MetricClientRetries).Value(); n != 2 {
		t.Fatalf("%s = %d, want 2", MetricClientRetries, n)
	}
}

func TestIdempotentReplayDirect(t *testing.T) {
	ctx := context.Background()
	reg := obs.New()
	c, _, _ := newConfigRig(t, reg, Config{})
	set := testSet(t, 4)

	first, err := c.SaveWithKey(ctx, "baseline", "replay-key", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.SaveWithKey(ctx, "baseline", "replay-key", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.SetID != first.SetID {
		t.Fatalf("replayed save returned %s, want %s", second.SetID, first.SetID)
	}
	ids, err := c.List(ctx, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("duplicate-key saves produced %d sets, want 1", len(ids))
	}
	// A different key is a different operation.
	third, err := c.SaveWithKey(ctx, "baseline", "other-key", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if third.SetID == first.SetID {
		t.Fatal("distinct keys deduplicated")
	}
	if _, err := c.SaveWithKey(ctx, "baseline", "", set, "", nil, nil); err == nil {
		t.Fatal("empty idempotency key accepted")
	}

	// Concurrent attempts of one key race for one key-derived set ID:
	// one writes it, the others wait out its claim (503 + Retry-After)
	// or find it committed, and are answered as replays.
	replays := reg.Counter(metricHTTPReplays).Value()
	const attempts = 8
	got := make([]core.SaveResult, attempts)
	errs := make([]error, attempts)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = c.SaveWithKey(ctx, "baseline", "concurrent-key", set, "", nil, nil)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent attempt %d: %v", i, errs[i])
		}
		if got[i].SetID != got[0].SetID {
			t.Fatalf("concurrent attempts returned %s and %s", got[0].SetID, got[i].SetID)
		}
	}
	if ids, err = c.List(ctx, "baseline"); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("after 8 concurrent same-key saves: sets = %v, want 3", ids)
	}
	if n := reg.Counter(metricHTTPReplays).Value() - replays; n != attempts-1 {
		t.Fatalf("concurrent same-key saves counted %d replays, want %d", n, attempts-1)
	}
}

// TestChaosKeyedSaveCrashEnumeration crashes a keyed save at every
// point of its mutation trace, restarts the server on the surviving
// state, and retries the key: exactly one set must result — never a
// second one for a save that had in fact committed — it must recover
// bit-identically, and fsck with repair must leave the store clean.
func TestChaosKeyedSaveCrashEnumeration(t *testing.T) {
	ctx := context.Background()
	const key = "crash-key"
	set := testSet(t, 6)
	serve := func(docs, blobs backend.Backend) (*Client, core.Stores, func()) {
		stores := core.Stores{
			Docs:     docstore.New(docs, latency.CostModel{}, nil),
			Blobs:    blobstore.New(blobs, latency.CostModel{}, nil),
			Datasets: dataset.NewRegistry(),
		}
		ts := httptest.NewServer(NewWithConfig(stores, obs.New(), Config{}))
		return &Client{BaseURL: ts.URL, Retry: fastRetry()}, stores, ts.Close
	}

	world := sim.NewWorld()
	c, _, stop := serve(world.Node("docs"), world.Node("blobs"))
	first, err := c.SaveWithKey(ctx, "baseline", key, set, "", nil, nil)
	stop()
	if err != nil {
		t.Fatal(err)
	}

	total := world.Len()
	for n := 0; n <= total; n++ {
		replayed := world.Replay(n)
		c, stores, stop := serve(replayed["docs"], replayed["blobs"])
		res, err := c.SaveWithKey(ctx, "baseline", key, set, "", nil, nil)
		if err != nil {
			t.Fatalf("crash at op %d/%d: retry: %v", n, total, err)
		}
		ids, err := c.List(ctx, "baseline")
		if err != nil {
			t.Fatal(err)
		}
		if res.SetID != first.SetID || len(ids) != 1 || ids[0] != first.SetID {
			t.Fatalf("crash at op %d/%d: retry saved %s, sets = %v, want exactly [%s]",
				n, total, res.SetID, ids, first.SetID)
		}
		if got, err := c.Recover(ctx, "baseline", first.SetID); err != nil || !set.Equal(got) {
			t.Fatalf("crash at op %d/%d: set not bit-identical (err=%v)", n, total, err)
		}
		if _, err := core.Fsck(stores, core.FsckOptions{Repair: true}); err != nil {
			t.Fatalf("crash at op %d/%d: fsck repair: %v", n, total, err)
		}
		if report, err := core.Fsck(stores, core.FsckOptions{}); err != nil || !report.Clean() {
			t.Fatalf("crash at op %d/%d: store dirty after repair (err=%v):\n%v", n, total, err, report)
		}
		stop()
	}
}

// TestLegacyOpJournalIgnored opens a store written while servers kept
// an op journal of keyed saves: its documents are ignored — fsck stays
// clean, and a keyed save under a journaled key is a fresh save.
func TestLegacyOpJournalIgnored(t *testing.T) {
	ctx := context.Background()
	stores := core.NewMemStores()
	// The journal keyed its documents by SHA-256 of approach and key.
	id := sha256.Sum256([]byte("Baseline\x00old-key"))
	if err := stores.Docs.Insert("op_journal", hex.EncodeToString(id[:]), map[string]any{
		"approach": "Baseline", "key": "old-key",
		"result": core.SaveResult{SetID: "bl-000001", BytesWritten: 1, WriteOps: 1},
	}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(stores))
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}
	if report, err := c.Fsck(ctx, false); err != nil || !report.Clean() {
		t.Fatalf("store with op_journal documents not fsck-clean (err=%v): %v", err, report)
	}
	set := testSet(t, 4)
	res, err := c.SaveWithKey(ctx, "baseline", "old-key", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesWritten == 0 {
		t.Fatal("keyed save answered from the old journal")
	}
	if got, err := c.Recover(ctx, "baseline", res.SetID); err != nil || !set.Equal(got) {
		t.Fatalf("keyed save on a journaled store not recoverable (err=%v)", err)
	}
	if report, err := c.Fsck(ctx, false); err != nil || !report.Clean() {
		t.Fatalf("store not fsck-clean after keyed save (err=%v): %v", err, report)
	}
}

func TestChaosGetRetriesTruncationAndBusy(t *testing.T) {
	ctx := context.Background()
	clientReg := obs.New()
	c, _ := newTestRig(t)
	set := testSet(t, 8)
	res, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// A truncated response body and a synthesized 503 burst must both
	// be absorbed by the retry loop on safe (GET) requests.
	tr := netchaos.NewTransport(nil, netchaos.Config{
		Script: []netchaos.Fault{netchaos.FaultTruncate, netchaos.FaultServerBusy},
	})
	c.HTTP = &http.Client{Transport: tr}
	c.Retry = fastRetry()
	c.Reg = clientReg

	got, err := c.Recover(ctx, "baseline", res.SetID)
	if err != nil {
		t.Fatalf("recover through chaos: %v", err)
	}
	if !set.Equal(got) {
		t.Fatal("recover through chaos lost data")
	}
	if tr.Injected() < 1 {
		t.Fatal("no faults injected")
	}
	if n := clientReg.Counter(MetricClientRetries).Value(); n < 1 {
		t.Fatalf("%s = %d, want >= 1", MetricClientRetries, n)
	}
}

func TestBreakerOpensProbesAndCloses(t *testing.T) {
	ctx := context.Background()
	reg := obs.New()

	var mu sync.Mutex
	failing := true
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		down := failing
		mu.Unlock()
		if down {
			http.Error(w, `{"error":"down"}`, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `["baseline"]`)
	}))
	t.Cleanup(ts.Close)

	c := &Client{
		BaseURL: ts.URL,
		Retry:   &RetryPolicy{MaxAttempts: 1},
		Breaker: &Breaker{Threshold: 3, Cooldown: 50 * time.Millisecond},
		Reg:     reg,
	}

	// Three consecutive failures open the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Approaches(ctx); err == nil {
			t.Fatal("request to failing server succeeded")
		}
	}
	if got := c.Breaker.State(); got != BreakerOpen {
		t.Fatalf("breaker state = %d, want open (%d)", got, BreakerOpen)
	}
	if got := reg.Gauge(MetricClientBreakerState).Value(); got != BreakerOpen {
		t.Fatalf("breaker gauge = %d, want %d", got, BreakerOpen)
	}

	// While open, requests fail fast without touching the wire.
	if _, err := c.Approaches(ctx); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker: err = %v, want ErrCircuitOpen", err)
	}

	// After the cooldown the breaker goes half-open; a failed probe
	// re-opens it.
	time.Sleep(60 * time.Millisecond)
	if got := c.Breaker.State(); got != BreakerHalfOpen {
		t.Fatalf("breaker state after cooldown = %d, want half-open (%d)", got, BreakerHalfOpen)
	}
	if _, err := c.Approaches(ctx); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("half-open probe: err = %v, want a sent-and-failed request", err)
	}
	if got := c.Breaker.State(); got != BreakerOpen {
		t.Fatalf("breaker state after failed probe = %d, want open (%d)", got, BreakerOpen)
	}

	// Server recovers; the next probe closes the breaker.
	mu.Lock()
	failing = false
	mu.Unlock()
	time.Sleep(60 * time.Millisecond)
	names, err := c.Approaches(ctx)
	if err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if len(names) != 1 || names[0] != "baseline" {
		t.Fatalf("probe response = %v", names)
	}
	if got := c.Breaker.State(); got != BreakerClosed {
		t.Fatalf("breaker state after successful probe = %d, want closed (%d)", got, BreakerClosed)
	}
	if got := reg.Gauge(MetricClientBreakerState).Value(); got != BreakerClosed {
		t.Fatalf("breaker gauge = %d, want %d", got, BreakerClosed)
	}
}

func TestRetryPolicyDelay(t *testing.T) {
	p := &RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Seed: 42}
	for n := 1; n <= 6; n++ {
		d := p.delay(n, 0)
		want := 100 * time.Millisecond << (n - 1)
		if want > time.Second || want <= 0 {
			want = time.Second
		}
		if d < want/2 || d >= want {
			t.Fatalf("delay(%d) = %v, want in [%v, %v)", n, d, want/2, want)
		}
	}
	// A Retry-After hint raises the floor but respects the cap.
	if d := p.delay(1, 500*time.Millisecond); d < 250*time.Millisecond {
		t.Fatalf("delay with Retry-After 500ms = %v, want >= 250ms", d)
	}
	if d := p.delay(1, time.Hour); d >= time.Second {
		t.Fatalf("delay with huge Retry-After = %v, want < MaxDelay", d)
	}
	// nil policy must still produce sane defaults.
	var nilP *RetryPolicy
	if got := nilP.attempts(); got != 4 {
		t.Fatalf("nil policy attempts = %d, want 4", got)
	}
	if d := nilP.delay(1, 0); d <= 0 || d > 2*time.Second {
		t.Fatalf("nil policy delay = %v", d)
	}
}

// slowBackend delays every Put so a test can hold a save in flight
// while the server is told to shut down. The first Put closes started.
type slowBackend struct {
	backend.Backend
	putDelay time.Duration
	started  chan struct{}
	once     sync.Once
}

func (s *slowBackend) Put(key string, data []byte) error {
	s.once.Do(func() { close(s.started) })
	time.Sleep(s.putDelay)
	return s.Backend.Put(key, data)
}

// newDrainRig starts a real (non-httptest) server via ServeListener so
// shutdown semantics — BeginDrain, drain deadline, base-context
// cancellation — are the ones mmserve ships with.
func newDrainRig(t *testing.T, putDelay, drainTimeout time.Duration) (*Client, core.Stores, *slowBackend, context.CancelFunc, chan error) {
	t.Helper()
	slow := &slowBackend{Backend: backend.NewMem(), putDelay: putDelay, started: make(chan struct{})}
	stores := core.Stores{
		Docs:     docstore.New(backend.NewMem(), latency.CostModel{}, nil),
		Blobs:    blobstore.New(slow, latency.CostModel{}, nil),
		Datasets: dataset.NewRegistry(),
	}
	api := NewWithConfig(stores, nil, Config{})
	hs := &http.Server{Handler: api}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	exited := make(chan struct{})
	go func() {
		done <- ServeListener(runCtx, hs, api, ln, drainTimeout)
		close(exited)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-exited:
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
	})
	c := &Client{BaseURL: "http://" + ln.Addr().String()}
	if err := c.WaitReady(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return c, stores, slow, cancel, done
}

func TestChaosShutdownDrainsInFlightSave(t *testing.T) {
	ctx := context.Background()
	c, stores, slow, cancel, done := newDrainRig(t, 50*time.Millisecond, 10*time.Second)

	set := testSet(t, 6)
	type saveOut struct {
		res core.SaveResult
		err error
	}
	saved := make(chan saveOut, 1)
	go func() {
		res, err := c.Save(ctx, "baseline", set, "", nil, nil)
		saved <- saveOut{res, err}
	}()

	// Once the save's first blob write is in flight, order shutdown.
	<-slow.started
	cancel()

	out := <-saved
	if out.err != nil {
		t.Fatalf("in-flight save during graceful drain: %v", out.err)
	}
	if err := <-done; err != nil {
		t.Fatalf("ServeListener after clean drain: %v", err)
	}

	// The drained store holds the completed set and no debris.
	report, err := core.Fsck(stores, core.FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("fsck after drain: %v", report.Issues)
	}
	if report.Sets != 1 {
		t.Fatalf("fsck found %d sets, want 1", report.Sets)
	}
}

func TestChaosShutdownDeadlineRollsBackStuckSave(t *testing.T) {
	ctx := context.Background()
	// Each blob write stalls 400ms against a 100ms drain budget: the
	// save cannot finish in time and must be canceled and rolled back.
	c, stores, slow, cancel, done := newDrainRig(t, 400*time.Millisecond, 100*time.Millisecond)

	set := testSet(t, 6)
	saveErr := make(chan error, 1)
	go func() {
		_, err := c.Save(ctx, "baseline", set, "", nil, nil)
		saveErr <- err
	}()

	<-slow.started
	cancel()

	if err := <-saveErr; err == nil {
		t.Fatal("stuck save reported success past the drain deadline")
	}
	if err := <-done; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ServeListener = %v, want context.DeadlineExceeded", err)
	}

	// The canceled save must have rolled back: no sets, no orphans.
	report, err := core.Fsck(stores, core.FsckOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("fsck after canceled save: %v", report.Issues)
	}
	if report.Sets != 0 {
		t.Fatalf("fsck found %d sets after rollback, want 0", report.Sets)
	}
}

func TestChaosDegradedRecoveryOverHTTP(t *testing.T) {
	ctx := context.Background()
	c, _, blobBE := newRawRig(t)
	set := testSet(t, 5)
	res, err := c.Save(ctx, "mmlib", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt one byte of model 2's parameter blob under the store.
	key := "mmlib/" + res.SetID + "/2/params.bin"
	raw, err := blobBE.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := blobBE.Put(key, raw); err != nil {
		t.Fatal(err)
	}

	// Default mode fails closed across the wire.
	if _, err := c.Recover(ctx, "mmlib", res.SetID); !errors.Is(err, core.ErrChecksumMismatch) {
		t.Fatalf("strict recover: err = %v, want core.ErrChecksumMismatch", err)
	}

	// Degraded mode returns the surviving n-1 models plus a report
	// naming the casualty.
	rec, report, err := c.RecoverPartial(ctx, "mmlib", res.SetID)
	if err != nil {
		t.Fatalf("degraded recover: %v", err)
	}
	if len(rec.Models) != 4 {
		t.Fatalf("degraded recover returned %d models, want 4", len(rec.Models))
	}
	if _, ok := rec.Models[2]; ok {
		t.Fatal("corrupt model 2 present in degraded result")
	}
	for _, i := range []int{0, 1, 3, 4} {
		if !rec.Models[i].ParamsEqual(set.Models[i]) {
			t.Fatalf("degraded recovery corrupted model %d", i)
		}
	}
	if report == nil || !report.Degraded() {
		t.Fatalf("report = %+v, want degraded", report)
	}
	if report.Requested != 5 || report.Recovered != 4 || report.Skipped != 1 {
		t.Fatalf("report counts = %d/%d/%d, want 5/4/1", report.Requested, report.Recovered, report.Skipped)
	}
	if len(report.Failures) != 1 || report.Failures[0].ModelIndex != 2 {
		t.Fatalf("report failures = %+v, want model 2", report.Failures)
	}
	if !strings.Contains(report.Failures[0].Error, "CRC32C") {
		t.Fatalf("failure cause = %q, want a CRC32C mismatch", report.Failures[0].Error)
	}

	// Selective degraded recovery over the same damage.
	rec, report, err = c.RecoverModelsPartial(ctx, "mmlib", res.SetID, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Models) != 1 || rec.Models[0] == nil {
		t.Fatalf("selective degraded recovery = %d models, want just model 0", len(rec.Models))
	}
	if report.Skipped != 1 || report.Failures[0].ModelIndex != 2 {
		t.Fatalf("selective report = %+v", report)
	}
}
