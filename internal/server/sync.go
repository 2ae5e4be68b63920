// Cluster set synchronization: POST /api/cluster/sync tells a node to
// copy one set from a peer into its own store. The destination drives
// the transfer itself over the existing pull protocol, diffing the
// peer's chunk recipe against its own content-addressed store — so a
// rebalance after a node rejoins moves only the chunk bytes the
// destination is actually missing, and a corrupt chunk can never enter
// the store (PutChunk re-verifies the digest).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/obs"
)

// SyncRequest is the JSON body of POST /api/cluster/sync.
type SyncRequest struct {
	// Approach names the namespace the set lives in (e.g. "baseline").
	Approach string `json:"approach"`
	// SetID is the set to copy.
	SetID string `json:"set_id"`
	// From is the base URL of the peer that has the set.
	From string `json:"from"`
}

// SyncReport is the response of a sync: what moved and what the local
// chunk store already had. The wire-efficiency claim of rebalancing —
// only missing chunks cross the network — is measurable here:
// ChunkCacheHits counts recipe chunks already present locally,
// BytesFetched counts what actually crossed the wire.
type SyncReport struct {
	Approach string `json:"approach"`
	SetID    string `json:"set_id"`
	// AlreadyPresent is true when the node had the set and did nothing.
	AlreadyPresent bool `json:"already_present"`
	// ChunksFetched / ChunkCacheHits / BytesFetched describe the pull:
	// chunks downloaded, chunks served from the local CAS, and payload
	// bytes received.
	ChunksFetched  int64 `json:"chunks_fetched"`
	ChunkCacheHits int64 `json:"chunk_cache_hits"`
	BytesFetched   int64 `json:"bytes_fetched"`
	// BytesWritten is the storage the local save consumed (small when
	// the chunks were already present — just recipe and metadata).
	BytesWritten int64 `json:"bytes_written"`
	// Fallback is true when the set could not be pulled chunk-wise and
	// was copied over the multipart path instead (e.g. a derived set,
	// which has no single chunk-addressed params blob).
	Fallback bool `json:"fallback"`
}

// SyncSet copies one set from the peer at from into this service's
// store, preserving the set ID. Derived sets are synchronized
// "flattened": the peer recovers the full parameter state and the
// local save stores it as a root set under the same ID — parameters
// stay byte-identical, lineage metadata is not carried over (the
// surviving replicas still hold it).
//
// Syncing is idempotent: a set already committed locally (including
// one that committed concurrently) reports AlreadyPresent instead of
// failing, so rebalancers retry freely. A set another writer is still
// saving fails the sync with a retryable 502.
func (s *Service) SyncSet(ctx context.Context, approach, setID, from string) (SyncReport, error) {
	report := SyncReport{Approach: approach, SetID: setID}
	a := s.approaches[approach]
	if a == nil {
		return report, fmt.Errorf("server: unknown approach %q", approach)
	}
	if err := core.ValidateSetID(setID); err != nil {
		return report, err
	}
	if have, err := s.HasSet(a, setID); err != nil {
		return report, err
	} else if have {
		report.AlreadyPresent = true
		return report, nil
	}

	// A private registry isolates this sync's pull counters so the
	// report reflects exactly this transfer. The local blob store IS
	// the pull cache: chunks the node already holds are never fetched,
	// and fetched chunks land directly in the CAS, where the save
	// below finds them — the dedup diff and the wire diff are the same
	// diff.
	reg := obs.New()
	peer := &Client{BaseURL: from, Reg: reg, Cache: &PullCache{cas: s.cas}}
	set, err := peer.Recover(ctx, approach, setID)
	if err != nil {
		return report, fmt.Errorf("server: sync pull of %s/%s from %s: %w", approach, setID, from, err)
	}
	report.ChunksFetched = reg.Counter(MetricPullChunksFetched).Value()
	report.ChunkCacheHits = reg.Counter(MetricPullCacheHits).Value()
	report.BytesFetched = reg.Counter(MetricPullBytes).Value()
	report.Fallback = reg.Counter(MetricPullFallbacks).Value() > 0

	res, err := a.SaveContext(ctx, core.SaveRequest{Set: set, SetID: setID})
	if errors.Is(err, core.ErrSetExists) {
		// Lost a race with another writer. Only a committed set is
		// present; one still being written fails this sync, and the
		// rebalancer retries.
		if report.AlreadyPresent, err = s.HasSet(a, setID); err == nil && !report.AlreadyPresent {
			err = fmt.Errorf("server: sync save of %s/%s: set is still being saved", approach, setID)
		}
		return report, err
	}
	if err != nil {
		return report, fmt.Errorf("server: sync save of %s/%s: %w", approach, setID, err)
	}
	report.BytesWritten = res.BytesWritten
	return report, nil
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	var req SyncRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, bodyStatus(err), err)
		return
	}
	if req.Approach == "" || req.SetID == "" || req.From == "" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("sync needs approach, set_id, and from"))
		return
	}
	report, err := s.SyncSet(r.Context(), req.Approach, req.SetID, req.From)
	if err != nil {
		writeError(w, syncStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, report)
}

// syncStatus maps a sync error onto an HTTP status: a source that no
// longer has the set is the caller's stale view (404); everything else
// is a 502 — the destination could not complete the copy, usually
// because the peer is unreachable, and the rebalancer should retry.
func syncStatus(err error) int {
	if errors.Is(err, core.ErrSetNotFound) {
		return http.StatusNotFound
	}
	return http.StatusBadGateway
}

// Sync asks the server to copy a set from a peer (the destination
// pulls). Rebalancers call it against the node that should gain the
// set.
func (c *Client) Sync(ctx context.Context, approach, setID, from string) (*SyncReport, error) {
	var out SyncReport
	if err := c.postJSON(ctx, "/api/cluster/sync",
		SyncRequest{Approach: approach, SetID: setID, From: from}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
