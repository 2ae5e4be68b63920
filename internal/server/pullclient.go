package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/core/pool"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/cas"
	"github.com/mmm-go/mmm/internal/storage/latency"
)

// Pull-protocol metric names, recorded into Client.Reg.
const (
	// MetricPullChunksFetched counts chunks downloaded over the wire.
	MetricPullChunksFetched = "mmm_pull_chunks_fetched_total"
	// MetricPullCacheHits counts chunks served from the local cache
	// instead of the network — the dedup win, measured on the wire.
	MetricPullCacheHits = "mmm_pull_chunk_cache_hits_total"
	// MetricPullBytes counts payload bytes received by chunk fetches,
	// partial reads included.
	MetricPullBytes = "mmm_pull_bytes_total"
	// MetricPullResumes counts range requests that resumed a partially
	// transferred chunk after a failure.
	MetricPullResumes = "mmm_pull_resumes_total"
	// MetricPullDigestMismatches counts chunk bodies discarded because
	// their bytes did not hash to the requested content address.
	MetricPullDigestMismatches = "mmm_pull_digest_mismatches_total"
	// MetricPullFallbacks counts recoveries that fell back to the
	// multipart path because the server or set cannot serve chunks.
	MetricPullFallbacks = "mmm_pull_fallbacks_total"
)

// PullCache is the client-side content-addressed chunk cache the pull
// protocol diffs against: chunks already present locally are never
// re-downloaded. It reuses the CAS layer's on-disk layout
// (cas/chunks/<hh>/<hash>), so a cache directory is inspectable with
// the same tooling as a store, and PutChunk's digest check guarantees a
// corrupt body can never enter it.
type PullCache struct {
	cas *cas.Store
}

// NewPullCache wraps a blob store as a pull cache. Tests use an
// in-memory store; OpenPullCache is the on-disk constructor.
func NewPullCache(blobs *blobstore.Store) *PullCache {
	return &PullCache{cas: cas.For(blobs)}
}

// OpenPullCache opens (creating if needed) an on-disk pull cache rooted
// at dir.
func OpenPullCache(dir string) (*PullCache, error) {
	b, err := backend.NewDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: opening pull cache: %w", err)
	}
	return NewPullCache(blobstore.New(b, latency.CostModel{}, nil)), nil
}

// Has reports whether the chunk is cached.
func (p *PullCache) Has(hash string) bool { return p.cas.HasChunk(hash) }

// Get returns a cached chunk's logical bytes.
func (p *PullCache) Get(hash string, size int64) ([]byte, error) {
	return p.cas.GetChunk(hash, size)
}

// Put stores a verified chunk body under its content address.
func (p *PullCache) Put(hash string, data []byte) error {
	return p.cas.PutChunk(hash, data)
}

// pullWorkers is the chunk-fetch fan-out.
func (c *Client) pullWorkers() int {
	if c.PullWorkers > 0 {
		return c.PullWorkers
	}
	return pool.DefaultWorkers()
}

// pullManifest fetches the chunk-transfer manifest of a set. fallback
// is true when the set cannot be pulled chunk-wise — the server
// predates the protocol (its mux answers 404/405 without the envelope),
// the approach or set has no single chunk-addressed params blob
// (pull_unavailable), or the manifest fails validation — and the caller
// should recover over the multipart path instead. A 404 that names
// set_not_found is a real error: the multipart path would only repeat
// it.
func (c *Client) pullManifest(ctx context.Context, approach, setID string) (m *PullManifest, fallback bool, err error) {
	resp, err := c.do(ctx, http.MethodGet, "/api/cas/recipe/"+approach+"/"+setID, "", nil)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxPullManifestBytes+1))
		if err != nil {
			return nil, false, fmt.Errorf("server: reading pull manifest: %w", err)
		}
		m, err := DecodePullManifest(data)
		if err != nil {
			// A server speaking a different dialect is a compatibility
			// problem, not a data problem: use the path that works.
			return nil, true, nil
		}
		c.reg().Counter(MetricPullBytes).Add(int64(len(data)))
		return m, false, nil
	case http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusNotImplemented:
		// Only an envelope that explicitly names set_not_found is a real
		// miss — the multipart path would just repeat it. Everything
		// else (pull_unavailable, an old server's code-less mux 404, a
		// proxy's 501) means "this route cannot serve chunks": fall
		// back. Unknown approaches fall back too and fail with the
		// proper error over the multipart path.
		var e httpError
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
		if e.Code == codeSetNotFound {
			return nil, false, fmt.Errorf("server: %s (HTTP %d): %w", e.Error, resp.StatusCode, core.ErrSetNotFound)
		}
		return nil, true, nil
	default:
		return nil, false, decodeError(resp)
	}
}

// pullParams downloads the byte range [off, off+n) of the manifest's
// parameter blob by assembling it from chunks: cached chunks are read
// locally, missing chunks are fetched in parallel across the worker
// pool (each with digest verification and range-resume), and verified
// bodies are cached before assembly. Passing off=0, n=m.Size fetches
// the whole blob.
func (c *Client) pullParams(ctx context.Context, m *PullManifest, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > m.Size {
		return nil, fmt.Errorf("server: pull range [%d,%d) outside blob of %d bytes", off, off+n, m.Size)
	}
	// Select the chunks overlapping the range, with their blob offsets.
	type need struct {
		chunk PullChunk
		start int64 // offset of the chunk inside the blob
	}
	var needs []need
	var pos int64
	for _, ch := range m.Chunks {
		if pos < off+n && pos+ch.Size > off {
			needs = append(needs, need{chunk: ch, start: pos})
		}
		pos += ch.Size
	}

	// Diff distinct digests against the local cache.
	sizes := make(map[string]int64, len(needs))
	for _, nd := range needs {
		sizes[nd.chunk.Hash] = nd.chunk.Size
	}
	var missing []string
	seen := make(map[string]bool, len(sizes))
	for _, nd := range needs {
		h := nd.chunk.Hash
		if seen[h] {
			continue
		}
		seen[h] = true
		if c.Cache != nil && c.Cache.Has(h) {
			c.reg().Counter(MetricPullCacheHits).Inc()
			continue
		}
		missing = append(missing, h)
	}

	// Fetch what the cache lacks, in parallel. Fetched bodies are kept
	// in memory for assembly and written through to the cache so the
	// next pull diffs against them.
	fetched := make(map[string][]byte, len(missing))
	var mu sync.Mutex
	err := pool.Run(ctx, c.pullWorkers(), len(missing), func(i int) error {
		h := missing[i]
		data, err := c.fetchChunk(ctx, h, sizes[h])
		if errors.Is(err, core.ErrSetNotFound) {
			// The server's own manifest names this chunk: the set is
			// there and damaged, not absent.
			return fmt.Errorf("server: manifest lists a chunk the server does not have: %v: %w", err, core.ErrCorruptBlob)
		}
		if err != nil {
			return err
		}
		if c.Cache != nil {
			if err := c.Cache.Put(h, data); err != nil {
				return err
			}
		}
		mu.Lock()
		fetched[h] = data
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]byte, n)
	for _, nd := range needs {
		data, ok := fetched[nd.chunk.Hash]
		if !ok {
			if c.Cache == nil {
				return nil, fmt.Errorf("server: chunk %s missing after fetch", nd.chunk.Hash)
			}
			var err error
			if data, err = c.Cache.Get(nd.chunk.Hash, nd.chunk.Size); err != nil {
				return nil, fmt.Errorf("server: reading cached chunk: %w", err)
			}
		}
		if int64(len(data)) != nd.chunk.Size {
			return nil, fmt.Errorf("server: chunk %s has %d bytes, manifest says %d: %w",
				nd.chunk.Hash, len(data), nd.chunk.Size, core.ErrCorruptBlob)
		}
		// Intersect [nd.start, nd.start+size) with [off, off+n).
		lo, hi := nd.start, nd.start+nd.chunk.Size
		if lo < off {
			lo = off
		}
		if hi > off+n {
			hi = off + n
		}
		copy(out[lo-off:hi-off], data[lo-nd.start:hi-nd.start])
	}
	return out, nil
}

// FetchChunk downloads one chunk's logical bytes by content address —
// the repair path: the scrubber re-fetches quarantined or missing
// chunks from a healthy peer through it. It carries the pull
// protocol's full verification, retry, and resume behavior, and
// satisfies scrub.ChunkFetcher.
func (c *Client) FetchChunk(ctx context.Context, hash string, size int64) ([]byte, error) {
	return c.fetchChunk(ctx, hash, size)
}

// fetchChunk downloads one chunk with digest verification, retry, and
// mid-body resume: a transfer that dies partway is continued with a
// Range request from the received offset instead of restarting, so
// flaky links converge instead of thrashing. A body whose bytes do not
// hash to the requested address is discarded and refetched from
// scratch — never returned, never cached.
func (c *Client) fetchChunk(ctx context.Context, hash string, size int64) ([]byte, error) {
	attempts := c.Retry.attempts()
	buf := make([]byte, 0, size)
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			c.reg().Counter(MetricClientRetries).Inc()
		}
		if c.Breaker != nil && !c.Breaker.allow() {
			c.noteBreaker()
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last failure: %v)", ErrCircuitOpen, lastErr)
			}
			return nil, ErrCircuitOpen
		}
		retryAfter, permanent, err := c.fetchChunkOnce(ctx, hash, size, &buf)
		if err == nil {
			sum := sha256.Sum256(buf)
			if hex.EncodeToString(sum[:]) == hash {
				if c.Breaker != nil {
					c.Breaker.onSuccess()
					c.noteBreaker()
				}
				c.reg().Counter(MetricPullChunksFetched).Inc()
				return buf, nil
			}
			// Wrong bytes under the address: poison, start over clean.
			c.reg().Counter(MetricPullDigestMismatches).Inc()
			buf = buf[:0]
			err = fmt.Errorf("server: chunk %s: body does not match digest: %w", hash, core.ErrCorruptBlob)
		}
		lastErr = err
		if c.Breaker != nil {
			c.Breaker.onFailure()
			c.noteBreaker()
		}
		if permanent || ctx.Err() != nil {
			return nil, lastErr
		}
		if attempt < attempts {
			t := time.NewTimer(c.Retry.delay(attempt, retryAfter))
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
	}
	return nil, fmt.Errorf("server: chunk %s failed after %d attempts: %w", hash, attempts, lastErr)
}

// fetchChunkOnce performs one streaming attempt at the chunk, appending
// received bytes to *buf. When *buf already holds a partial body, the
// attempt asks the server to resume with a Range request and verifies
// the 206's Content-Range actually continues at the right offset —
// anything else restarts the transfer from zero rather than splicing
// bytes at the wrong position. permanent marks failures a retry cannot
// fix (unknown digest, server-detected corruption).
func (c *Client) fetchChunkOnce(ctx context.Context, hash string, size int64, buf *[]byte) (retryAfter time.Duration, permanent bool, err error) {
	path := "/api/cas/chunk/" + hash + "?s=" + strconv.FormatInt(size, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return 0, true, err
	}
	resuming := int64(len(*buf)) > 0 && int64(len(*buf)) < size
	if resuming {
		req.Header.Set("Range", "bytes="+strconv.FormatInt(int64(len(*buf)), 10)+"-")
		req.Header.Set("If-Range", `"`+hash+`"`)
		c.reg().Counter(MetricPullResumes).Inc()
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		// Full body (or a server ignoring Range): restart accumulation.
		*buf = (*buf)[:0]
	case http.StatusPartialContent:
		if !resuming {
			return 0, false, fmt.Errorf("server: chunk %s: unsolicited partial content", hash)
		}
		start, ok := contentRangeStart(resp.Header.Get("Content-Range"))
		if !ok || start != int64(len(*buf)) {
			// The server resumed somewhere else; splicing would corrupt.
			*buf = (*buf)[:0]
			return 0, false, fmt.Errorf("server: chunk %s: resume at wrong offset (Content-Range %q, want %d)",
				hash, resp.Header.Get("Content-Range"), len(*buf))
		}
	case http.StatusRequestedRangeNotSatisfiable:
		*buf = (*buf)[:0]
		return 0, false, fmt.Errorf("server: chunk %s: range not satisfiable, restarting", hash)
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return parseRetryAfter(resp), false, fmt.Errorf("server: chunk %s: HTTP %d", hash, resp.StatusCode)
	default:
		return 0, true, decodeError(resp)
	}

	// Stream with the manifest-declared bound (+1 detects overshoot,
	// mirroring the decompression bomb guard): a response longer than
	// the chunk can never verify, so stop paying for it immediately.
	remaining := size - int64(len(*buf))
	lr := io.LimitReader(resp.Body, remaining+1)
	tmp := make([]byte, 32<<10)
	for {
		n, rerr := lr.Read(tmp)
		if n > 0 {
			*buf = append(*buf, tmp[:n]...)
			c.reg().Counter(MetricPullBytes).Add(int64(n))
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			// Connection died mid-body; keep what arrived for resume.
			return 0, false, fmt.Errorf("server: chunk %s: transfer interrupted: %w", hash, rerr)
		}
	}
	if int64(len(*buf)) > size {
		*buf = (*buf)[:0]
		return 0, false, fmt.Errorf("server: chunk %s: body exceeds declared %d bytes", hash, size)
	}
	if int64(len(*buf)) < size {
		// Clean EOF short of the declared size: truncation the transport
		// did not flag. Resume from where it stopped.
		return 0, false, fmt.Errorf("server: chunk %s: body truncated at %d of %d bytes: %w",
			hash, len(*buf), size, io.ErrUnexpectedEOF)
	}
	return 0, false, nil
}

// contentRangeStart parses the first-byte position out of a
// "bytes start-end/total" Content-Range value.
func contentRangeStart(v string) (int64, bool) {
	v, ok := strings.CutPrefix(v, "bytes ")
	if !ok {
		return 0, false
	}
	dash := strings.IndexByte(v, '-')
	if dash < 0 {
		return 0, false
	}
	start, err := strconv.ParseInt(v[:dash], 10, 64)
	if err != nil || start < 0 {
		return 0, false
	}
	return start, true
}

// pullRecover recovers a full set over the pull protocol. ok is false
// when the set must be recovered over the multipart path instead.
func (c *Client) pullRecover(ctx context.Context, approach, setID string) (*core.ModelSet, bool, error) {
	m, fallback, err := c.pullManifest(ctx, approach, setID)
	if err != nil {
		return nil, false, err
	}
	if fallback {
		return nil, false, nil
	}
	params, err := c.pullParams(ctx, m, 0, m.Size)
	if err != nil {
		return nil, false, err
	}
	set, err := setFromBytes(m.Arch, m.NumModels, params)
	if err != nil {
		return nil, false, err
	}
	return set, true, nil
}

// pullRecoverModels recovers selected models over the pull protocol,
// fetching only the chunks overlapping their byte ranges. ok is false
// when the caller must fall back to the multipart path.
func (c *Client) pullRecoverModels(ctx context.Context, approach, setID string, indices []int) (*core.PartialRecovery, bool, error) {
	m, fallback, err := c.pullManifest(ctx, approach, setID)
	if err != nil {
		return nil, false, err
	}
	if fallback {
		return nil, false, nil
	}
	per := int64(m.Arch.ParamBytes())
	distinct := make([]int, 0, len(indices))
	seen := make(map[int]bool, len(indices))
	for _, idx := range indices {
		if idx < 0 || idx >= m.NumModels {
			return nil, false, fmt.Errorf("server: model index %d outside set of %d models", idx, m.NumModels)
		}
		if !seen[idx] {
			seen[idx] = true
			distinct = append(distinct, idx)
		}
	}
	sort.Ints(distinct)
	out := &core.PartialRecovery{Arch: m.Arch, Models: map[int]*nn.Model{}}
	for _, idx := range distinct {
		data, err := c.pullParams(ctx, m, int64(idx)*per, per)
		if err != nil {
			return nil, false, err
		}
		mod, err := nn.NewModelUninitialized(m.Arch)
		if err != nil {
			return nil, false, err
		}
		if _, err := mod.SetParamBytes(data); err != nil {
			return nil, false, err
		}
		out.Models[idx] = mod
	}
	return out, true, nil
}
