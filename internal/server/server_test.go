package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/env"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/cas"
	"github.com/mmm-go/mmm/internal/storage/docstore"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

// newTestRig starts an in-process server and returns a client for it.
func newTestRig(t *testing.T) (*Client, core.Stores) {
	t.Helper()
	stores := core.NewMemStores()
	ts := httptest.NewServer(New(stores))
	t.Cleanup(ts.Close)
	return &Client{BaseURL: ts.URL}, stores
}

func testSet(t *testing.T, n int) *core.ModelSet {
	t.Helper()
	set, err := core.NewModelSet(nn.FFNN("srv-test", 4, []int{6}, 1), n, 77)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestHealthAndApproaches(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestRig(t)
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	names, err := c.Approaches(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"baseline", "mmlib", "provenance", "update"}
	if len(names) != len(want) {
		t.Fatalf("approaches = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("approaches = %v, want %v", names, want)
		}
	}
}

func TestSaveRecoverRoundTripOverHTTP(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestRig(t)
	set := testSet(t, 12)
	res, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SetID == "" || res.BytesWritten == 0 {
		t.Fatalf("save result = %+v", res)
	}
	got, err := c.Recover(ctx, "baseline", res.SetID)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Equal(got) {
		t.Fatal("HTTP round trip lost data")
	}
}

func TestSelectiveRecoveryOverHTTP(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestRig(t)
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
		if !set.Models[idx].ParamsEqual(pr.Models[idx]) {
			t.Fatalf("model %d wrong over HTTP", idx)
		}
	}
}

func TestUpdateChainOverHTTP(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestRig(t)
	set := testSet(t, 8)
	res1, err := c.Save(ctx, "update", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Change one model, save the derived set.
	set.Models[3].Params()[0].Tensor.Data[0] += 0.25
	res2, err := c.Save(ctx, "update", set, res1.SetID, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BytesWritten >= res1.BytesWritten {
		t.Fatalf("derived save %d B not below full save %d B", res2.BytesWritten, res1.BytesWritten)
	}
	got, err := c.Recover(ctx, "update", res2.SetID)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Equal(got) {
		t.Fatal("derived chain wrong over HTTP")
	}
	chain, err := c.Info(ctx, "update", res2.SetID)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[0].SetID != res2.SetID || chain[1].Kind != "full" {
		t.Fatalf("lineage = %+v", chain)
	}
}

func TestProvenanceOverHTTP(t *testing.T) {
	// The full remote flow: the client registers the dataset, trains
	// locally, uploads provenance; the server recovers by retraining.
	ctx := context.Background()
	c, _ := newTestRig(t)
	set := testSet(t, 5)
	res1, err := c.Save(ctx, "provenance", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := dataset.Spec{
		Kind: dataset.KindBattery, CellID: 2, Cycle: 1, SoH: 0.98,
		Samples: 40, NoiseStd: 0.002, Seed: 7,
	}
	dsID, err := c.PutDataset(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := dataset.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := nn.TrainConfig{Epochs: 2, BatchSize: 10, LearningRate: 0.05, Loss: "mse", Seed: 11}
	if _, err := nn.Train(set.Models[2], data, cfg); err != nil {
		t.Fatal(err)
	}
	train := &core.TrainInfo{Config: cfg, Environment: env.Capture(), PipelineCode: core.PipelineCode}
	train.Config.Seed = 0 // per-model seed travels in the update record
	updates := []core.ModelUpdate{{ModelIndex: 2, DatasetID: dsID, Seed: 11}}
	res2, err := c.Save(ctx, "provenance", set, res1.SetID, updates, train)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(ctx, "provenance", res2.SetID)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Equal(got) {
		t.Fatal("provenance recovery over HTTP not bit-exact")
	}
	ids, err := c.Datasets(ctx)
	if err != nil || len(ids) != 1 {
		t.Fatalf("datasets = %v, %v", ids, err)
	}
}

func TestVerifyAndPruneOverHTTP(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestRig(t)
	set := testSet(t, 4)
	res1, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	issues, err := c.Verify(ctx, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Fatalf("clean store reports %v", issues)
	}
	report, err := c.Prune(ctx, "baseline", []string{res2.SetID})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Deleted) != 1 || report.Deleted[0] != res1.SetID {
		t.Fatalf("prune report = %+v", report)
	}
	ids, err := c.List(ctx, "baseline")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != res2.SetID {
		t.Fatalf("sets after prune = %v", ids)
	}
}

func TestHTTPErrors(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestRig(t)
	if _, err := c.List(ctx, "hologram"); err == nil || !strings.Contains(err.Error(), "unknown approach") {
		t.Errorf("unknown approach err = %v", err)
	}
	if _, err := c.Recover(ctx, "baseline", "bl-404"); !errors.Is(err, core.ErrSetNotFound) {
		t.Errorf("recovery of unknown set: err = %v, want core.ErrSetNotFound", err)
	}
	if _, err := c.Info(ctx, "baseline", "bl-404"); err == nil {
		t.Error("info of unknown set accepted")
	}
	if _, err := c.RecoverModels(ctx, "baseline", "bl-404", []int{0}); !errors.Is(err, core.ErrSetNotFound) {
		t.Errorf("selective recovery of unknown set: err = %v, want core.ErrSetNotFound", err)
	}
	if _, err := c.PutDataset(ctx, dataset.Spec{Kind: "junk"}); err == nil {
		t.Error("invalid dataset spec accepted")
	}
	if _, err := c.Prune(ctx, "baseline", []string{"bl-404"}); err == nil {
		t.Error("prune with unknown keep accepted")
	}
	// Save with mismatched params length must be rejected.
	set := testSet(t, 3)
	set.Models = set.Models[:2] // manifest will claim 2 but we forge NumModels below
	res, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatalf("well-formed save rejected: %v (%+v)", err, res)
	}
}

// newRawRig starts a server whose raw blob backend the test can reach
// underneath the checksumming store, to corrupt bytes in place.
func newRawRig(t *testing.T) (*Client, core.Stores, *backend.Mem) {
	t.Helper()
	blobBE := backend.NewMem()
	stores := core.Stores{
		Docs:     docstore.New(backend.NewMem(), latency.CostModel{}, nil),
		Blobs:    blobstore.New(blobBE, latency.CostModel{}, nil),
		Datasets: dataset.NewRegistry(),
	}
	ts := httptest.NewServer(New(stores))
	t.Cleanup(ts.Close)
	return &Client{BaseURL: ts.URL}, stores, blobBE
}

func TestChecksumMismatchOverHTTP(t *testing.T) {
	ctx := context.Background()
	c, _, blobBE := newRawRig(t)
	set := testSet(t, 4)
	res, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte of the parameter blob underneath the store.
	key := "baseline/" + res.SetID + "/params.bin"
	raw, err := blobBE.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := blobBE.Put(key, raw); err != nil {
		t.Fatal(err)
	}

	_, err = c.Recover(ctx, "baseline", res.SetID)
	if !errors.Is(err, core.ErrChecksumMismatch) {
		t.Fatalf("recover of corrupt set: err = %v, want core.ErrChecksumMismatch", err)
	}
	// Bit rot is the server's fault, not the request's.
	if !strings.Contains(err.Error(), "HTTP 500") {
		t.Errorf("checksum mismatch reported as %v, want HTTP 500", err)
	}
}

// A chunk gone from under a committed dedup set is damage the server
// must own up to: 500 corrupt_blob on the full and the selective path,
// never the 404 of a set that does not exist.
func TestMissingChunkIsCorruptBlobOverHTTP(t *testing.T) {
	ctx := context.Background()
	stores := core.NewMemStores()
	ts := httptest.NewServer(NewWithConfig(stores, obs.New(), Config{Dedup: true}))
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}
	res, err := c.Save(ctx, "baseline", testSet(t, 4), "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cas.For(stores.Blobs).Recipe("baseline/" + res.SetID + "/params.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := stores.Blobs.Delete(cas.ChunkKey(r.Chunks[0].Hash)); err != nil {
		t.Fatal(err)
	}
	// The client pulls chunk-wise; the chunk endpoint's 404 must not
	// come out as "set not found".
	_, fullErr := c.Recover(ctx, "baseline", res.SetID)
	_, partErr := c.RecoverModels(ctx, "baseline", res.SetID, []int{0})
	for what, err := range map[string]error{"Recover": fullErr, "RecoverModels": partErr} {
		if !errors.Is(err, core.ErrCorruptBlob) || errors.Is(err, core.ErrSetNotFound) {
			t.Errorf("%s of a set missing a chunk: %v, want ErrCorruptBlob", what, err)
		}
	}
	// The multipart path recovers on the server.
	for _, query := range []string{"", "?indices=0"} {
		resp, err := http.Get(ts.URL + "/api/baseline/sets/" + res.SetID + "/params" + query)
		if err != nil {
			t.Fatal(err)
		}
		var e httpError
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusInternalServerError || e.Code != codeCorruptBlob {
			t.Errorf("GET params%s: HTTP %d %+v (%v), want 500 corrupt_blob", query, resp.StatusCode, e, err)
		}
	}
}

func TestDuOverHTTP(t *testing.T) {
	ctx := context.Background()
	c, stores, _ := newRawRig(t)
	// Real-size models so chunk sharing dwarfs recipe overhead.
	set, err := core.NewModelSet(nn.FFNN48(), 3, 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Save(ctx, "baseline", set, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Two deduplicated saves of the same content next to the raw one,
	// as a CLI running with -dedup against this store would write.
	dedup := core.NewBaseline(stores, core.WithDedup())
	for i := 0; i < 2; i++ {
		if _, err := dedup.Save(core.SaveRequest{Set: set}); err != nil {
			t.Fatal(err)
		}
	}

	report, duErr := c.Du(ctx)
	if duErr != nil {
		t.Fatal(duErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Sets) != 3 {
		t.Fatalf("du reports %d sets, want 3: %+v", len(report.Sets), report.Sets)
	}
	for _, s := range report.Sets {
		if s.Approach != "baseline" || s.LogicalBytes == 0 || s.PhysicalBytes == 0 {
			t.Errorf("implausible du row %+v", s)
		}
	}
	if report.Chunks == 0 || report.ChunkBytes == 0 {
		t.Errorf("dedup saves left no chunks in du: %+v", report)
	}
	// The second dedup save shares every chunk with the first, so the
	// store holds less than it logically stores.
	if report.PhysicalBytes >= report.LogicalBytes {
		t.Errorf("physical %d >= logical %d despite chunk sharing",
			report.PhysicalBytes, report.LogicalBytes)
	}
	if report.DedupRatioPercent <= 100 {
		t.Errorf("dedup ratio %d%%, want > 100%%", report.DedupRatioPercent)
	}
}

func TestFsckOverHTTP(t *testing.T) {
	ctx := context.Background()
	c, stores, _ := newRawRig(t)
	set := testSet(t, 3)
	if _, err := c.Save(ctx, "baseline", set, "", nil, nil); err != nil {
		t.Fatal(err)
	}

	report, err := c.Fsck(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() || report.Sets != 1 {
		t.Fatalf("fsck of healthy store = %+v", report)
	}

	// Plant an uncommitted blob; fsck must report it as a deletable
	// orphan, and fsck --repair must remove it.
	if err := stores.Blobs.Put("baseline/bl-999999/params.bin", []byte("torn")); err != nil {
		t.Fatal(err)
	}
	report, err = c.Fsck(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Issues) != 1 || !report.Issues[0].Orphan || report.Damaged() {
		t.Fatalf("fsck with planted orphan = %+v", report)
	}
	repaired, err := c.Fsck(ctx, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(repaired.Issues) != 1 || !repaired.Issues[0].Repaired {
		t.Fatalf("fsck repair = %+v", repaired)
	}
	if report, err = c.Fsck(ctx, false); err != nil || !report.Clean() {
		t.Fatalf("store after repair = %+v, %v", report, err)
	}
}

func TestSaveRejectsGarbageBody(t *testing.T) {
	_, stores := newTestRig(t)
	srv := httptest.NewServer(New(stores))
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/api/baseline/sets", "text/plain",
		strings.NewReader("not multipart"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == 201 {
		t.Fatal("garbage body accepted")
	}
}

// instrumentedMemStores builds in-memory stores whose backends record
// into reg — the same wrapping mmm.OpenDirStoresWith applies on disk.
func instrumentedMemStores(reg *obs.Registry) core.Stores {
	return core.Stores{
		Docs:     docstore.New(backend.Instrument(backend.NewMem(), reg, "docs"), latency.CostModel{}, nil),
		Blobs:    blobstore.New(backend.Instrument(backend.NewMem(), reg, "blobs"), latency.CostModel{}, nil),
		Datasets: dataset.NewRegistry(),
	}
}

// expositionLine matches one Prometheus text-format sample:
// name{labels} value.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? ` +
		`(\+Inf|-Inf|NaN|-?[0-9]+(\.[0-9]+)?([eE][-+]?[0-9]+)?)$`)

func TestMetricsEndpoint(t *testing.T) {
	ctx := context.Background()
	reg := obs.New()
	stores := instrumentedMemStores(reg)
	ts := httptest.NewServer(NewWithMetrics(stores, reg))
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}

	// One save and one full recovery per approach, over the wire.
	approaches := map[string]string{
		"baseline":   "Baseline",
		"update":     "Update",
		"provenance": "Provenance",
		"mmlib":      "MMlib-base",
	}
	for ap := range approaches {
		set := testSet(t, 3)
		res, err := c.Save(ctx, ap, set, "", nil, nil)
		if err != nil {
			t.Fatalf("%s save: %v", ap, err)
		}
		if _, err := c.Recover(ctx, ap, res.SetID); err != nil {
			t.Fatalf("%s recover: %v", ap, err)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)

	// The whole exposition must parse line by line.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// TTS and TTR histograms for all four approaches, with the exact
	// operation counts the loop above performed.
	for _, name := range approaches {
		for _, series := range []string{
			fmt.Sprintf("mmm_save_seconds_count{approach=%q} 1", name),
			fmt.Sprintf("mmm_recover_seconds_count{approach=%q} 1", name),
		} {
			if !strings.Contains(text, series) {
				t.Errorf("metrics missing %q", series)
			}
		}
	}

	// Backend traffic flowed through the instrumented backends, and
	// the HTTP middleware counted the requests themselves.
	for _, substr := range []string{
		`mmm_backend_ops_total{op="put",store="blobs"}`,
		`mmm_backend_ops_total{op="get",store="blobs"}`,
		`mmm_backend_ops_total{op="put",store="docs"}`,
		`mmm_backend_write_bytes_total{store="blobs"}`,
		`mmm_backend_read_bytes_total{store="blobs"}`,
		`mmm_http_requests_total{code="201",route="POST /api/{approach}/sets"} 4`,
		`mmm_http_requests_total{code="200",route="GET /api/{approach}/sets/{id}/params"} 4`,
	} {
		if !strings.Contains(text, substr) {
			t.Errorf("metrics missing %q", substr)
		}
	}

	// The client helper fetches the same exposition.
	viaClient, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(viaClient, "mmm_save_seconds_count") {
		t.Error("Client.Metrics missing TTS series")
	}
}

func TestSaveBaseMismatchOverHTTP(t *testing.T) {
	ctx := context.Background()
	c, _ := newTestRig(t)
	set := testSet(t, 4)
	res, err := c.Save(ctx, "update", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A derived save whose set shape disagrees with the base must come
	// back as ErrBaseMismatch across the HTTP boundary.
	smaller := testSet(t, 2)
	_, err = c.Save(ctx, "update", smaller, res.SetID, nil, nil)
	if !errors.Is(err, core.ErrBaseMismatch) {
		t.Fatalf("mismatched derived save error = %v, want ErrBaseMismatch", err)
	}
}

// TestSaveDiskFullReturns507 rehearses a server whose disk fills
// mid-save: the request must come back 507 Insufficient Storage with
// the JSON envelope carrying the no_space code (the client maps it to
// core.ErrNoSpace), the failed save must roll back to nothing, and the
// next save after space frees must succeed.
func TestSaveDiskFullReturns507(t *testing.T) {
	ctx := context.Background()
	fBlob := backend.NewFaulty(backend.NewMem())
	stores := core.Stores{
		Docs:     docstore.New(backend.NewMem(), latency.CostModel{}, nil),
		Blobs:    blobstore.New(fBlob, latency.CostModel{}, nil),
		Datasets: dataset.NewRegistry(),
	}
	ts := httptest.NewServer(New(stores, core.WithDedup()))
	t.Cleanup(ts.Close)
	c := &Client{BaseURL: ts.URL}

	fBlob.FailPutsAfterWith(2, backend.ErrNoSpace)
	_, err := c.Save(ctx, "baseline", testSet(t, 4), "", nil, nil)
	if !errors.Is(err, core.ErrNoSpace) {
		t.Fatalf("disk-full save error = %v, want core.ErrNoSpace", err)
	}
	if !strings.Contains(err.Error(), "HTTP 507") {
		t.Fatalf("disk-full save error = %v, want HTTP 507", err)
	}
	fBlob.FailPutsAfter(-1)

	// Rollback left nothing behind: the store is fsck-clean with no
	// orphans, so no chunk or recipe survives.
	report, ferr := core.Fsck(stores, core.FsckOptions{})
	if ferr != nil {
		t.Fatal(ferr)
	}
	if !report.Clean() {
		t.Fatalf("store not clean after rolled-back disk-full save:\n%v", report.Issues)
	}

	// Space freed: service resumes.
	set := testSet(t, 4)
	res, err := c.Save(ctx, "baseline", set, "", nil, nil)
	if err != nil {
		t.Fatalf("save after space freed: %v", err)
	}
	got, err := c.Recover(ctx, "baseline", res.SetID)
	if err != nil || !set.Equal(got) {
		t.Fatalf("recover after disk-full episode: %v", err)
	}
}

func TestConfigCacheBytesAttachesServingCache(t *testing.T) {
	stores := core.NewMemStores()
	NewWithConfig(stores, obs.New(), Config{CacheBytes: 4 << 20})
	c := cas.For(stores.Blobs).ChunkCache()
	if c == nil {
		t.Fatal("Config.CacheBytes attached no chunk cache to the store")
	}
	if c.MaxBytes() != 4<<20 {
		t.Fatalf("cache budget = %d, want %d", c.MaxBytes(), 4<<20)
	}

	// Zero leaves a fresh store uncached.
	plain := core.NewMemStores()
	NewWithConfig(plain, obs.New(), Config{})
	if cas.For(plain.Blobs).ChunkCache() != nil {
		t.Fatal("zero CacheBytes attached a cache")
	}
}
