package server

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/version"
)

// newNode starts an in-process node with its own stores and registry.
func newNode(t *testing.T, cfg Config) (*Client, *Server, core.Stores) {
	t.Helper()
	stores := core.NewMemStores()
	api := NewWithConfig(stores, obs.New(), cfg)
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)
	return &Client{BaseURL: ts.URL}, api, stores
}

func TestVersionEndpoint(t *testing.T) {
	ctx := context.Background()
	c, _, _ := newNode(t, Config{Codec: "zlib", Dedup: true})
	v, err := c.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != version.Version {
		t.Fatalf("version = %q, want %q", v.Version, version.Version)
	}
	if v.Codec != "zlib" || !v.Dedup {
		t.Fatalf("policy = codec %q dedup %v, want zlib/true", v.Codec, v.Dedup)
	}
	if len(v.Approaches) != 4 {
		t.Fatalf("approaches = %v", v.Approaches)
	}

	raw, _, _ := newNode(t, Config{})
	rv, err := raw.Version(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rv.Codec != "none" || rv.Dedup {
		t.Fatalf("default policy = codec %q dedup %v, want none/false", rv.Codec, rv.Dedup)
	}
	if rv.Compatible(v) {
		t.Fatal("raw node should be incompatible with zlib+dedup node")
	}
}

func TestExplicitIDSave(t *testing.T) {
	ctx := context.Background()
	c, _, _ := newNode(t, Config{})
	set := testSet(t, 4)

	res, err := c.SaveAs(ctx, "baseline", "my-set-01", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.SetID != "my-set-01" {
		t.Fatalf("set ID = %q, want my-set-01", res.SetID)
	}
	got, err := c.Recover(ctx, "baseline", "my-set-01")
	if err != nil {
		t.Fatal(err)
	}
	if !set.Equal(got) {
		t.Fatal("recovered set differs")
	}

	// The same explicit ID again must conflict with set_exists.
	if _, err := c.SaveAs(ctx, "baseline", "my-set-01", testSet(t, 4), "", nil, nil); !errors.Is(err, core.ErrSetExists) {
		t.Fatalf("duplicate explicit ID: err = %v, want ErrSetExists", err)
	}

	// Illegal IDs are rejected before anything is written.
	if _, err := c.SaveAs(ctx, "baseline", "../evil", testSet(t, 4), "", nil, nil); err == nil {
		t.Fatal("path-traversal ID accepted")
	}

	// An allocator-assigned ID still works alongside explicit ones.
	auto, err := c.Save(ctx, "baseline", testSet(t, 4), "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if auto.SetID == "" || auto.SetID == "my-set-01" {
		t.Fatalf("allocator ID = %q", auto.SetID)
	}
}

func TestSyncSetCopiesByteIdentically(t *testing.T) {
	ctx := context.Background()
	srcClient, _, _ := newNode(t, Config{Dedup: true})
	dstClient, dstAPI, _ := newNode(t, Config{Dedup: true})

	set := testSet(t, 10)
	res, err := srcClient.SaveAs(ctx, "baseline", "sync-src-01", set, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	rep, err := dstClient.Sync(ctx, "baseline", res.SetID, srcClient.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AlreadyPresent {
		t.Fatal("first sync reported AlreadyPresent")
	}
	if rep.ChunksFetched == 0 || rep.BytesFetched == 0 {
		t.Fatalf("sync moved nothing: %+v", rep)
	}
	got, err := dstClient.Recover(ctx, "baseline", res.SetID)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Equal(got) {
		t.Fatal("synced set differs from original")
	}

	// Re-syncing is an idempotent no-op.
	rep2, err := dstClient.Sync(ctx, "baseline", res.SetID, srcClient.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.AlreadyPresent || rep2.BytesFetched != 0 {
		t.Fatalf("re-sync = %+v, want AlreadyPresent with zero transfer", rep2)
	}

	// Both stores pass fsck after the copy: the sync wrote a complete,
	// committed set, not debris.
	report, err := dstClient.Fsck(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Fatalf("destination fsck: %+v", report.Issues)
	}
	_ = dstAPI
}

// TestSyncMovesOnlyMissingChunks is the rebalance wire-efficiency
// claim at the unit level: syncing a lightly mutated sibling of a set
// the destination already holds fetches only the changed chunks.
func TestSyncMovesOnlyMissingChunks(t *testing.T) {
	ctx := context.Background()
	srcClient, _, _ := newNode(t, Config{Dedup: true})
	dstClient, _, _ := newNode(t, Config{Dedup: true})

	base, err := core.NewModelSet(nn.FFNN("sync-delta", 64, []int{64}, 8), 16, 77)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srcClient.SaveAs(ctx, "baseline", "delta-a", base, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Same seed, one model nudged: almost every chunk is shared.
	sibling, err := core.NewModelSet(nn.FFNN("sync-delta", 64, []int{64}, 8), 16, 77)
	if err != nil {
		t.Fatal(err)
	}
	sibling.Models[3].Params()[0].Tensor.Data[0] += 1
	if _, err := srcClient.SaveAs(ctx, "baseline", "delta-b", sibling, "", nil, nil); err != nil {
		t.Fatal(err)
	}

	repA, err := dstClient.Sync(ctx, "baseline", "delta-a", srcClient.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	repB, err := dstClient.Sync(ctx, "baseline", "delta-b", srcClient.BaseURL)
	if err != nil {
		t.Fatal(err)
	}
	if repB.ChunkCacheHits == 0 {
		t.Fatalf("sibling sync hit no cached chunks: %+v", repB)
	}
	if repB.BytesFetched >= repA.BytesFetched {
		t.Fatalf("sibling sync fetched %d bytes, full sync fetched %d — expected a delta",
			repB.BytesFetched, repA.BytesFetched)
	}
}

func TestSyncUnknownSetFails(t *testing.T) {
	ctx := context.Background()
	srcClient, _, _ := newNode(t, Config{Dedup: true})
	dstClient, _, _ := newNode(t, Config{Dedup: true})
	_, err := dstClient.Sync(ctx, "baseline", "no-such-set", srcClient.BaseURL)
	if !errors.Is(err, core.ErrSetNotFound) {
		t.Fatalf("err = %v, want ErrSetNotFound", err)
	}
}
