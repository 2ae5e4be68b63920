package cluster

import (
	"fmt"
	"strings"
	"testing"

	"github.com/mmm-go/mmm/internal/core"
)

func threeNodeTable(t *testing.T, replicas int) *Table {
	t.Helper()
	tb := NewTable(replicas, 0)
	for _, m := range []Member{
		{Name: "node-a", URL: "http://a"},
		{Name: "node-b", URL: "http://b"},
		{Name: "node-c", URL: "http://c"},
	} {
		if err := tb.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestOwnersDistinctAndDeterministic(t *testing.T) {
	tb := threeNodeTable(t, 2)
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("set-%d", i)
		owners := tb.Owners(key)
		if len(owners) != 2 {
			t.Fatalf("key %q: %d owners, want 2", key, len(owners))
		}
		if owners[0].Name == owners[1].Name {
			t.Fatalf("key %q: duplicate owner %q", key, owners[0].Name)
		}
		again := tb.Owners(key)
		if owners[0] != again[0] || owners[1] != again[1] {
			t.Fatalf("key %q: owners not deterministic", key)
		}
	}
}

func TestOwnersSpreadAcrossMembers(t *testing.T) {
	tb := threeNodeTable(t, 2)
	counts := map[string]int{}
	for i := 0; i < 600; i++ {
		for _, m := range tb.Owners(fmt.Sprintf("spread-%d", i)) {
			counts[m.Name]++
		}
	}
	for _, name := range []string{"node-a", "node-b", "node-c"} {
		// 600 keys × 2 replicas over 3 nodes → ~400 each; require a
		// loose band, this guards against degenerate placement, not
		// perfect balance.
		if counts[name] < 200 || counts[name] > 600 {
			t.Fatalf("member %s owns %d replicas of 1200, badly unbalanced: %v",
				name, counts[name], counts)
		}
	}
}

// TestMembershipChangeMovesFewKeys is the consistent-hashing property:
// adding a fourth node must not reshuffle placement wholesale.
func TestMembershipChangeMovesFewKeys(t *testing.T) {
	tb := threeNodeTable(t, 2)
	before := map[string][]Member{}
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("churn-%d", i)
		before[key] = tb.Owners(key)
	}
	if err := tb.Add(Member{Name: "node-d", URL: "http://d"}); err != nil {
		t.Fatal(err)
	}
	movedReplicas := 0
	for key, old := range before {
		now := tb.Owners(key)
		oldSet := map[string]bool{}
		for _, m := range old {
			oldSet[m.Name] = true
		}
		for _, m := range now {
			if !oldSet[m.Name] {
				movedReplicas++
			}
		}
	}
	// 1000 replica slots over 4 nodes: the newcomer should take roughly
	// its fair share (~250), nowhere near a full reshuffle.
	if movedReplicas > 500 {
		t.Fatalf("adding one node moved %d of 1000 replica slots", movedReplicas)
	}
	if movedReplicas == 0 {
		t.Fatal("adding a node moved nothing — ring is not rebalancing at all")
	}

	// Removing it restores the original placement exactly.
	tb.Remove("node-d")
	for key, old := range before {
		now := tb.Owners(key)
		for i := range old {
			if now[i] != old[i] {
				t.Fatalf("key %q: placement changed after add+remove round-trip", key)
			}
		}
	}
}

func TestOwnersClampedToMembership(t *testing.T) {
	tb := NewTable(3, 0)
	if got := tb.Owners("anything"); len(got) != 0 {
		t.Fatalf("empty table returned owners: %v", got)
	}
	if err := tb.Add(Member{Name: "only", URL: "http://only"}); err != nil {
		t.Fatal(err)
	}
	owners := tb.Owners("anything")
	if len(owners) != 1 || owners[0].Name != "only" {
		t.Fatalf("R=3 with one member: owners = %v", owners)
	}
}

func TestSequenceCoversAllMembers(t *testing.T) {
	tb := threeNodeTable(t, 2)
	seq := tb.Sequence("some-chunk-hash")
	if len(seq) != 3 {
		t.Fatalf("sequence length %d, want 3", len(seq))
	}
	seen := map[string]bool{}
	for _, m := range seq {
		seen[m.Name] = true
	}
	if len(seen) != 3 {
		t.Fatalf("sequence repeats members: %v", seq)
	}
	// The first element of the sequence is the primary owner.
	if seq[0] != tb.Owners("some-chunk-hash")[0] {
		t.Fatal("sequence does not start at the primary owner")
	}
}

func TestDownMembersStillOwn(t *testing.T) {
	tb := threeNodeTable(t, 2)
	tb.SetDown("node-a", true)
	sawA := false
	for i := 0; i < 100; i++ {
		for _, m := range tb.Owners(fmt.Sprintf("down-%d", i)) {
			if m.Name == "node-a" {
				sawA = true
			}
		}
	}
	// Health must not change placement: a down node still owns its
	// ranges (the router works around it at request time).
	if !sawA {
		t.Fatal("down member vanished from placement")
	}
	if got := countUsable(tb); got != 2 {
		t.Fatalf("usable members = %d, want 2", got)
	}
	tb.SetIncompatible("node-b", "version skew")
	if got := countUsable(tb); got != 1 {
		t.Fatalf("usable with one down one incompatible = %d, want 1", got)
	}
}

func countUsable(tb *Table) int {
	n := 0
	for _, ms := range tb.Members() {
		if tb.Usable(ms.Name) {
			n++
		}
	}
	return n
}

func TestMintIDAndPlacementKeyColocate(t *testing.T) {
	root := MintID("router-abc123", "")
	if err := core.ValidateSetID(root); err != nil {
		t.Fatalf("minted root ID %q invalid: %v", root, err)
	}
	if !strings.HasPrefix(root, "r-g") {
		t.Fatalf("root ID = %q, want r-g<hex> form", root)
	}
	// Deterministic: same idempotency key, same ID — that is what makes
	// cross-replica retries converge on one set.
	if again := MintID("router-abc123", ""); again != root {
		t.Fatalf("MintID not deterministic: %q vs %q", again, root)
	}
	if other := MintID("router-zzz999", ""); other == root {
		t.Fatal("different keys minted the same ID")
	}

	derived := MintID("router-def456", root)
	if err := core.ValidateSetID(derived); err != nil {
		t.Fatalf("derived ID %q invalid: %v", derived, err)
	}
	// A derived ID names its base's group, not the whole base: a fixed
	// 33 bytes, which at depth 1 still reads as the base plus a suffix.
	if len(derived) > 33 || !strings.HasPrefix(derived, root+"-d") {
		t.Fatalf("derived ID %q does not share base %q's group in 33 bytes", derived, root)
	}

	// Root and derived share a placement key → same owners → lineage
	// recovery never crosses nodes.
	if PlacementKey(root) != PlacementKey(derived) {
		t.Fatalf("lineage split across placement groups: %q vs %q",
			PlacementKey(root), PlacementKey(derived))
	}
	grand := MintID("router-ghi789", derived)
	if PlacementKey(grand) != PlacementKey(root) || len(grand) > 33 {
		t.Fatalf("grandchild %q left the placement group or grew past 33 bytes", grand)
	}

	// Foreign IDs (no group token) still get a stable key.
	if PlacementKey("some-external-set") != PlacementKey("some-external-set") {
		t.Fatal("PlacementKey unstable for plain IDs")
	}
	if PlacementKey("some-external-set") == PlacementKey("other-set") {
		t.Fatal("distinct plain IDs collided")
	}
}
