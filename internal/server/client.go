package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/dataset"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/obs"
)

// Client talks to a management Server. It mirrors the approach API:
// Save, Recover, RecoverModels, plus the operational endpoints. Every
// method takes a context that cancels the request in flight.
//
// GETs retry transient failures (transport errors, truncated bodies,
// 502/503/504) with jittered backoff; POSTs are sent once unless made
// idempotent via SaveWithKey. An optional Breaker stops requests to a
// server that keeps failing. See retry.go.
type Client struct {
	// BaseURL is the server root, e.g. "http://manager:8080".
	BaseURL string
	// HTTP is the client to use; nil means http.DefaultClient.
	HTTP *http.Client
	// Retry tunes the retry loop; nil uses the defaults documented on
	// RetryPolicy.
	Retry *RetryPolicy
	// Breaker, when set, applies circuit breaking to every request.
	Breaker *Breaker
	// Reg receives the mmm_client_* metric series; nil means
	// obs.Default.
	Reg *obs.Registry
	// Codec, when non-empty, is stamped into every save manifest as an
	// assertion about the server's configured compression codec. A
	// server whose codec differs rejects the save with 422 before
	// writing anything, so a client that cares about on-disk encoding
	// fails fast instead of discovering a mismatch at audit time.
	// Leave empty to accept whatever the server is configured with.
	Codec string
	// Cache, when set, is the local content-addressed chunk cache the
	// pull protocol diffs recoveries against: chunks already present
	// are never re-downloaded, so re-pulling a lightly mutated set
	// costs O(changed chunks) on the wire. Recoveries work without a
	// cache — every chunk is then fetched — and fall back to the
	// multipart path entirely when the server or set cannot serve
	// chunks. See PullCache.
	Cache *PullCache
	// PullWorkers bounds the parallel chunk fetches of one pull
	// recovery; 0 means one worker per CPU.
	PullWorkers int
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// decodeError extracts the server's JSON error envelope and, when the
// envelope carries an error code, wraps the matching core sentinel so
// callers can test with errors.Is across the HTTP boundary. A 404
// without a code still wraps core.ErrSetNotFound for older servers.
func decodeError(resp *http.Response) error {
	defer resp.Body.Close()
	msg := fmt.Sprintf("HTTP %d", resp.StatusCode)
	var e httpError
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e); err == nil && e.Error != "" {
		msg = fmt.Sprintf("%s (HTTP %d)", e.Error, resp.StatusCode)
	}
	if sentinel := sentinelForCode(e.Code); sentinel != nil {
		return fmt.Errorf("server: %s: %w", msg, sentinel)
	}
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("server: %s: %w", msg, core.ErrSetNotFound)
	}
	return fmt.Errorf("server: %s", msg)
}

// sentinelForCode inverts errorCode: wire code → core sentinel.
func sentinelForCode(code string) error {
	switch code {
	case codeSetNotFound:
		return core.ErrSetNotFound
	case codeChecksumMismatch:
		return core.ErrChecksumMismatch
	case codeCorruptBlob:
		return core.ErrCorruptBlob
	case codeBudgetExceeded:
		return core.ErrBudgetExceeded
	case codeBaseMismatch:
		return core.ErrBaseMismatch
	case codeNoSpace:
		return core.ErrNoSpace
	case codeSetExists:
		return core.ErrSetExists
	default:
		return nil
	}
}

// do sends one logical request through the retry/breaker layer. body
// must be a full, replayable payload; GETs are retried, other methods
// are sent once.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte) (*http.Response, error) {
	return c.roundTrip(ctx, method, path, contentType, body, nil, method == http.MethodGet)
}

func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	resp, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	// Closed before the status check so no branch — including panics in
	// the decoder — can leak the body. decodeError's own close is then
	// a harmless second close.
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.do(ctx, http.MethodPost, path, "application/json", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Health checks the server is up.
func (c *Client) Health(ctx context.Context) error {
	var out map[string]string
	if err := c.getJSON(ctx, "/healthz", &out); err != nil {
		return err
	}
	if out["status"] != "ok" {
		return fmt.Errorf("server unhealthy: %v", out)
	}
	return nil
}

// Approaches lists the approach names the server exposes.
func (c *Client) Approaches(ctx context.Context) ([]string, error) {
	var out []string
	err := c.getJSON(ctx, "/api/approaches", &out)
	return out, err
}

// List returns the set IDs saved under an approach.
func (c *Client) List(ctx context.Context, approach string) ([]string, error) {
	var out []string
	err := c.getJSON(ctx, "/api/"+approach+"/sets", &out)
	return out, err
}

// Info returns a set's lineage, newest first.
func (c *Client) Info(ctx context.Context, approach, setID string) ([]core.SetInfo, error) {
	var out []core.SetInfo
	err := c.getJSON(ctx, "/api/"+approach+"/sets/"+setID, &out)
	return out, err
}

// Save uploads a model set. base, updates, and train follow
// core.SaveRequest semantics. Save is sent once: without an
// idempotency key a retry could duplicate the set. Use SaveWithKey on
// unreliable networks.
func (c *Client) Save(ctx context.Context, approach string, set *core.ModelSet, base string, updates []core.ModelUpdate, train *core.TrainInfo) (core.SaveResult, error) {
	return c.save(ctx, approach, "", "", set, base, updates, train)
}

// SaveAs is Save with an explicit set ID (sent as X-Mmm-Set-Id): the
// set lands under setID instead of a server-allocated sequential ID,
// or fails with core.ErrSetExists if a set of that ID has committed.
// Like Save it is sent once. Replication tooling that copies a set
// under its cluster-wide name uses it; single-node clients normally
// let the server allocate.
func (c *Client) SaveAs(ctx context.Context, approach, setID string, set *core.ModelSet, base string, updates []core.ModelUpdate, train *core.TrainInfo) (core.SaveResult, error) {
	if setID == "" {
		return core.SaveResult{}, fmt.Errorf("server: SaveAs needs a non-empty set ID")
	}
	return c.save(ctx, approach, "", setID, set, base, updates, train)
}

// SaveWithKey is Save with an Idempotency-Key: the server stores the
// set under an ID derived from the key, so the save executes once and
// a retry of a committed save is answered as a replay that reports the
// set ID with 0 bytes and 0 write ops. The client therefore retries
// transient failures as freely as a GET. Keys are client-chosen; a
// fresh operation needs a fresh key.
func (c *Client) SaveWithKey(ctx context.Context, approach, key string, set *core.ModelSet, base string, updates []core.ModelUpdate, train *core.TrainInfo) (core.SaveResult, error) {
	if key == "" {
		return core.SaveResult{}, fmt.Errorf("server: SaveWithKey needs a non-empty key")
	}
	return c.save(ctx, approach, key, "", set, base, updates, train)
}

func (c *Client) save(ctx context.Context, approach, key, setID string, set *core.ModelSet, base string, updates []core.ModelUpdate, train *core.TrainInfo) (core.SaveResult, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	mpart, err := mw.CreateFormField("manifest")
	if err != nil {
		return core.SaveResult{}, err
	}
	manifest := Manifest{
		Arch: set.Arch, NumModels: set.Len(),
		Base: base, Updates: updates, Train: train,
		Codec: c.Codec,
	}
	if err := json.NewEncoder(mpart).Encode(manifest); err != nil {
		return core.SaveResult{}, err
	}
	ppart, err := mw.CreateFormFile("params", "params.bin")
	if err != nil {
		return core.SaveResult{}, err
	}
	if _, err := ppart.Write(setToBytes(set)); err != nil {
		return core.SaveResult{}, err
	}
	if err := mw.Close(); err != nil {
		return core.SaveResult{}, err
	}

	header := http.Header{}
	if key != "" {
		header.Set(IdempotencyKeyHeader, key)
	}
	if setID != "" {
		header.Set(SetIDHeader, setID)
	}
	resp, err := c.roundTrip(ctx, http.MethodPost, "/api/"+approach+"/sets",
		mw.FormDataContentType(), buf.Bytes(), header, key != "")
	if err != nil {
		return core.SaveResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return core.SaveResult{}, decodeError(resp)
	}
	var res core.SaveResult
	err = json.NewDecoder(resp.Body).Decode(&res)
	return res, err
}

// Recover downloads a full set. Servers and sets that speak the pull
// protocol are recovered chunk-wise — recipe diff against the local
// cache, parallel ranged chunk fetches, per-chunk digest verification —
// and everything else falls back to the one-shot multipart download.
// Recovered bytes are identical either way.
func (c *Client) Recover(ctx context.Context, approach, setID string) (*core.ModelSet, error) {
	set, ok, err := c.pullRecover(ctx, approach, setID)
	if err != nil {
		return nil, err
	}
	if ok {
		return set, nil
	}
	c.reg().Counter(MetricPullFallbacks).Inc()
	manifest, params, err := c.fetchParams(ctx, "/api/"+approach+"/sets/"+setID+"/params")
	if err != nil {
		return nil, err
	}
	return setFromBytes(manifest.Arch, manifest.NumModels, params)
}

// RecoverModels downloads selected models of a set, over the pull
// protocol when available (fetching only the chunks overlapping the
// requested models), falling back to the multipart path otherwise.
func (c *Client) RecoverModels(ctx context.Context, approach, setID string, indices []int) (*core.PartialRecovery, error) {
	rec, ok, err := c.pullRecoverModels(ctx, approach, setID, indices)
	if err != nil {
		return nil, err
	}
	if ok {
		return rec, nil
	}
	c.reg().Counter(MetricPullFallbacks).Inc()
	rec, _, err = c.recoverModels(ctx, approach, setID, indices, false)
	return rec, err
}

// RecoverModelsPartial downloads selected models in degraded mode:
// models the server cannot recover are skipped, and the report names
// them. See core.WithPartialResults.
func (c *Client) RecoverModelsPartial(ctx context.Context, approach, setID string, indices []int) (*core.PartialRecovery, *core.RecoveryReport, error) {
	return c.recoverModels(ctx, approach, setID, indices, true)
}

// RecoverPartial downloads a whole set in degraded mode, returning the
// recoverable models plus the report of what was lost.
func (c *Client) RecoverPartial(ctx context.Context, approach, setID string) (*core.PartialRecovery, *core.RecoveryReport, error) {
	return c.recoverModels(ctx, approach, setID, nil, true)
}

func (c *Client) recoverModels(ctx context.Context, approach, setID string, indices []int, partial bool) (*core.PartialRecovery, *core.RecoveryReport, error) {
	path := "/api/" + approach + "/sets/" + setID + "/params"
	q := make([]string, 0, 2)
	if len(indices) > 0 {
		strs := make([]string, len(indices))
		for i, v := range indices {
			strs[i] = strconv.Itoa(v)
		}
		q = append(q, "indices="+strings.Join(strs, ","))
	}
	if partial {
		q = append(q, "partial=1")
	}
	if len(q) > 0 {
		path += "?" + strings.Join(q, "&")
	}
	manifest, params, err := c.fetchParams(ctx, path)
	if err != nil {
		return nil, nil, err
	}
	per := manifest.Arch.ParamBytes()
	if len(params) != per*len(manifest.Indices) {
		return nil, nil, fmt.Errorf("server: selective recovery returned %d bytes for %d models",
			len(params), len(manifest.Indices))
	}
	out := &core.PartialRecovery{Arch: manifest.Arch, Models: map[int]*nn.Model{}}
	for i, idx := range manifest.Indices {
		m, err := nn.NewModelUninitialized(manifest.Arch)
		if err != nil {
			return nil, nil, err
		}
		if _, err := m.SetParamBytes(params[i*per : (i+1)*per]); err != nil {
			return nil, nil, err
		}
		out.Models[idx] = m
	}
	return out, manifest.Report, nil
}

// fetchParams downloads a multipart recovery response. Responses whose
// multipart framing ends before the closing boundary — a connection
// torn down mid-body after the status line was already out — are
// transport failures, not data, and are retried like any other
// transient error rather than surfacing as a nonsensical size mismatch.
func (c *Client) fetchParams(ctx context.Context, path string) (*RecoveryManifest, []byte, error) {
	attempts := c.Retry.attempts()
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			c.reg().Counter(MetricClientRetries).Inc()
		}
		manifest, params, err := c.fetchParamsOnce(ctx, path)
		if err == nil {
			return manifest, params, nil
		}
		if !truncatedResponse(err) {
			return nil, nil, err
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, nil, lastErr
		}
		if attempt < attempts {
			t := time.NewTimer(c.Retry.delay(attempt, 0))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, nil, ctx.Err()
			case <-t.C:
			}
		}
	}
	return nil, nil, fmt.Errorf("server: recovery failed after %d attempts: %w", attempts, lastErr)
}

// truncatedResponse reports whether err means the recovery body ended
// before its multipart framing was complete.
func truncatedResponse(err error) bool {
	return errors.Is(err, io.ErrUnexpectedEOF)
}

func (c *Client) fetchParamsOnce(ctx context.Context, path string) (*RecoveryManifest, []byte, error) {
	resp, err := c.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, decodeError(resp)
	}
	mediaType, mtParams, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || !strings.HasPrefix(mediaType, "multipart/") {
		return nil, nil, fmt.Errorf("server: unexpected content type %q", resp.Header.Get("Content-Type"))
	}
	mr := multipart.NewReader(resp.Body, mtParams["boundary"])
	var manifest *RecoveryManifest
	var params []byte
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("server: reading recovery response: %w", err)
		}
		switch part.FormName() {
		case "manifest":
			manifest = &RecoveryManifest{}
			if err := json.NewDecoder(io.LimitReader(part, maxPullManifestBytes)).Decode(manifest); err != nil {
				return nil, nil, fmt.Errorf("server: parsing recovery manifest: %w", err)
			}
		case "params":
			// Cap the read at the manifest-declared size (+1 to detect
			// overshoot) so a corrupt or malicious response cannot drive
			// an unbounded allocation. When the params part arrives
			// before the manifest — a layout no known server produces —
			// the save-side budget bounds it instead.
			limit := int64(maxSaveBytes)
			if expected, ok := expectedParamBytes(manifest); ok {
				limit = expected
			}
			if params, err = io.ReadAll(io.LimitReader(part, limit+1)); err != nil {
				return nil, nil, fmt.Errorf("server: reading recovery params: %w", err)
			}
			if int64(len(params)) > limit {
				return nil, nil, fmt.Errorf("server: params part exceeds declared %d bytes", limit)
			}
		}
	}
	if manifest == nil || manifest.Arch == nil {
		return nil, nil, fmt.Errorf("server: recovery response missing manifest")
	}
	return manifest, params, nil
}

// expectedParamBytes is the exact params-part size a recovery manifest
// declares: per-model bytes times the models being returned (the
// selected indices on selective recoveries, the whole set otherwise).
func expectedParamBytes(m *RecoveryManifest) (int64, bool) {
	if m == nil || m.Arch == nil {
		return 0, false
	}
	n := m.NumModels
	if len(m.Indices) > 0 {
		n = len(m.Indices)
	}
	if n < 0 {
		return 0, false
	}
	return int64(m.Arch.ParamBytes()) * int64(n), true
}

// Verify runs a server-side store verification.
func (c *Client) Verify(ctx context.Context, approach string) ([]core.Issue, error) {
	var out []core.Issue
	err := c.postJSON(ctx, "/api/"+approach+"/verify", struct{}{}, &out)
	return out, err
}

// Prune expires all sets except the closure of keep.
func (c *Client) Prune(ctx context.Context, approach string, keep []string) (*core.PruneReport, error) {
	var out core.PruneReport
	if err := c.postJSON(ctx, "/api/"+approach+"/prune", pruneRequest{Keep: keep}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Fsck runs a server-side store-wide integrity check across all
// approaches; repair additionally deletes orphaned crash debris.
func (c *Client) Fsck(ctx context.Context, repair bool) (*core.FsckReport, error) {
	var out core.FsckReport
	if err := c.postJSON(ctx, "/api/fsck", fsckRequest{Repair: repair}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Du reports server-side storage occupancy: logical versus physical
// bytes per set and store-wide, including the dedup ratio.
func (c *Client) Du(ctx context.Context) (*core.DuReport, error) {
	var out core.DuReport
	if err := c.getJSON(ctx, "/api/du", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PutDataset registers a dataset spec in the server's registry and
// returns its ID — required before saving provenance updates that
// reference it.
func (c *Client) PutDataset(ctx context.Context, spec dataset.Spec) (string, error) {
	var out map[string]string
	if err := c.postJSON(ctx, "/api/datasets", spec, &out); err != nil {
		return "", err
	}
	return out["id"], nil
}

// Metrics downloads the server's metrics in Prometheus text
// exposition format.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", decodeError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// Datasets lists the registered dataset IDs.
func (c *Client) Datasets(ctx context.Context) ([]string, error) {
	var out []string
	err := c.getJSON(ctx, "/api/datasets", &out)
	return out, err
}
