package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/core/pool"
	"github.com/mmm-go/mmm/internal/server"
)

// Rebalancing: after a membership change (node joined, left, or
// rejoined with a stale store), the ring's owner assignments and the
// cluster's actual data placement disagree. Rebalance walks the
// catalog, computes the owner diff for every set, and tells each
// under-replicated owner to sync the set from a peer that has it —
// destination-driven over the pull protocol, so a rejoining node that
// already holds most chunks fetches only the delta.

// rebalanceWorkers bounds concurrent set syncs; syncing is
// network+disk bound on the destinations, so a small fan-out saturates
// without stampeding a freshly rejoined node.
const rebalanceWorkers = 4

// Move is one set transfer a rebalance performed (or failed).
type Move struct {
	Approach string `json:"approach"`
	SetID    string `json:"set_id"`
	// To is the owner that was missing the set, From the peer it
	// pulled from.
	To   string `json:"to"`
	From string `json:"from"`
	// Report is the destination's sync accounting (nil on error).
	Report *server.SyncReport `json:"report,omitempty"`
	Error  string             `json:"error,omitempty"`
}

// RebalanceReport sums what a rebalance did. The wire-efficiency claim
// is auditable from it: BytesFetched is what actually crossed the
// network, ChunkCacheHits×(avg chunk size) is what staying put saved.
type RebalanceReport struct {
	// Sets is the number of distinct sets examined across approaches.
	Sets int `json:"sets"`
	// Synced counts sets copied onto at least one new owner;
	// AlreadyPresent counts moves that found the set already there.
	Synced         int `json:"synced"`
	AlreadyPresent int `json:"already_present"`
	// Unplaceable counts sets some owner should hold but no usable
	// peer could supply — data whose only replicas are down.
	Unplaceable int `json:"unplaceable"`
	// ChunksFetched, ChunkCacheHits, BytesFetched aggregate the
	// destinations' pull accounting across all moves.
	ChunksFetched  int64 `json:"chunks_fetched"`
	ChunkCacheHits int64 `json:"chunk_cache_hits"`
	BytesFetched   int64 `json:"bytes_fetched"`
	// Moves lists every transfer, deterministic order.
	Moves []Move `json:"moves,omitempty"`
	// Errors lists member-level failures (listing failures, sync
	// errors) that left the rebalance incomplete.
	Errors []string `json:"errors,omitempty"`
}

// Rebalance re-establishes the ring's placement: every usable owner of
// every known set ends up holding it. Safe to run repeatedly —
// syncing is idempotent and a clean cluster rebalances to zero moves.
func (rt *Router) Rebalance(ctx context.Context) (*RebalanceReport, error) {
	report := &RebalanceReport{}
	members := rt.usable()
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: no usable members to rebalance")
	}

	// Catalog: which usable member holds which set, per approach.
	type setKey struct{ approach, id string }
	holders := map[setKey][]Member{}
	var mu sync.Mutex
	for _, approach := range core.ApproachNames() {
		oks, errs := rt.fanout(ctx, func(ctx context.Context, m Member) (any, error) {
			return rt.client(m).List(ctx, approach)
		})
		for name, err := range errs {
			report.Errors = append(report.Errors,
				fmt.Sprintf("listing %s on %s: %v", approach, name, err))
		}
		for name, v := range oks {
			var member Member
			for _, m := range members {
				if m.Name == name {
					member = m
				}
			}
			for _, id := range v.([]string) {
				holders[setKey{approach, id}] = append(holders[setKey{approach, id}], member)
			}
		}
	}
	report.Sets = len(holders)

	// Owner diff → move list.
	var moves []Move
	fromFor := map[int]Member{}
	for key, have := range holders {
		owners := rt.table.Owners(PlacementKey(key.id))
		hasIt := map[string]bool{}
		for _, m := range have {
			hasIt[m.Name] = true
		}
		for _, owner := range owners {
			if hasIt[owner.Name] || !rt.table.Usable(owner.Name) {
				continue
			}
			// Source: any usable holder. Prefer the first in ring order
			// for determinism.
			var from *Member
			for _, h := range have {
				if rt.table.Usable(h.Name) {
					from = &h
					break
				}
			}
			if from == nil {
				report.Unplaceable++
				continue
			}
			fromFor[len(moves)] = *from
			moves = append(moves, Move{Approach: key.approach, SetID: key.id, To: owner.Name, From: from.Name})
		}
	}

	// Execute, bounded. Each move is independent; failures are recorded
	// per move rather than aborting the pass.
	results := make([]Move, len(moves))
	memberByName := map[string]Member{}
	for _, m := range members {
		memberByName[m.Name] = m
	}
	_ = pool.Run(ctx, rebalanceWorkers, len(moves), func(i int) error {
		mv := moves[i]
		dest := memberByName[mv.To]
		src := fromFor[i]
		rt.reg.Counter(MetricRouterSyncs).Inc()
		rep, err := rt.client(dest).Sync(ctx, mv.Approach, mv.SetID, src.URL)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			mv.Error = err.Error()
		} else {
			mv.Report = rep
		}
		results[i] = mv
		return nil
	})

	for _, mv := range results {
		if mv.Error != "" {
			report.Errors = append(report.Errors,
				fmt.Sprintf("sync %s/%s onto %s: %s", mv.Approach, mv.SetID, mv.To, mv.Error))
		} else if mv.Report != nil {
			if mv.Report.AlreadyPresent {
				report.AlreadyPresent++
			} else {
				report.Synced++
			}
			report.ChunksFetched += mv.Report.ChunksFetched
			report.ChunkCacheHits += mv.Report.ChunkCacheHits
			report.BytesFetched += mv.Report.BytesFetched
			rt.reg.Counter(MetricRouterSyncBytes).Add(mv.Report.BytesFetched)
		}
		report.Moves = append(report.Moves, mv)
	}
	sort.Slice(report.Moves, func(i, j int) bool {
		a, b := report.Moves[i], report.Moves[j]
		if a.Approach != b.Approach {
			return a.Approach < b.Approach
		}
		if a.SetID != b.SetID {
			return a.SetID < b.SetID
		}
		return a.To < b.To
	})
	sort.Strings(report.Errors)
	return report, nil
}

// handleRebalance runs a rebalance pass and returns its report.
func (rt *Router) handleRebalance(w http.ResponseWriter, r *http.Request) {
	report, err := rt.Rebalance(r.Context())
	if err != nil {
		server.WriteJSON(w, http.StatusServiceUnavailable, routerError{Error: err.Error()})
		return
	}
	server.WriteJSON(w, http.StatusOK, report)
}
