package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	mmm "github.com/mmm-go/mmm"
)

func TestRemoteLifecycle(t *testing.T) {
	ts := httptest.NewServer(mmm.NewManagementServer(mmm.NewMemStores()))
	t.Cleanup(ts.Close)
	remote := func(args ...string) error {
		t.Helper()
		full := append([]string{args[0], "-server", ts.URL, "-approach", "baseline"}, args[1:]...)
		return run(context.Background(), full)
	}

	// A remote init is a keyed save, stored under the ID the server
	// derives from its key: read it back from the listing.
	client := &mmm.ManagementClient{BaseURL: ts.URL}
	sets := func(want int) []string {
		t.Helper()
		ids, err := client.List(context.Background(), "baseline")
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != want {
			t.Fatalf("sets = %v, want %d", ids, want)
		}
		return ids
	}

	if err := remote("init", "-n", "6"); err != nil {
		t.Fatal(err)
	}
	first := sets(1)[0]
	for _, args := range [][]string{
		{"list"},
		{"inspect", "-set", first},
		{"recover", "-set", first},
		{"recover", "-set", first, "-partial"},
		{"verify"},
		{"fsck"},
	} {
		if err := remote(args...); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
	}

	// Idempotency keys are fresh per invocation: a second init is a
	// second set, not a replay.
	if err := remote("init", "-n", "6"); err != nil {
		t.Fatal(err)
	}
	second := sets(2)[0]
	if second == first {
		second = sets(2)[1]
	}
	if err := remote("recover", "-set", second, "-verify-against", first); err != nil {
		t.Fatal(err)
	}

	// Commands that need raw store access refuse remote mode.
	if err := remote("cycle", "-base", first); err == nil ||
		!strings.Contains(err.Error(), "direct store access") {
		t.Fatalf("remote cycle: err = %v, want a direct-store-access refusal", err)
	}
}

func TestRemoteWaitReadyTimesOutOnDrainingServer(t *testing.T) {
	stores := mmm.NewMemStores()
	api := mmm.NewManagementServer(stores)
	api.BeginDrain()
	ts := httptest.NewServer(api)
	t.Cleanup(ts.Close)

	err := run(context.Background(), []string{
		"list", "-server", ts.URL, "-approach", "baseline", "-wait-ready", "300ms",
	})
	if err == nil || !strings.Contains(err.Error(), "not ready") {
		t.Fatalf("list against draining server: err = %v, want a readiness failure", err)
	}
}
