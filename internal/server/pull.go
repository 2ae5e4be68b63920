// Registry-grade pull protocol: instead of streaming one monolithic
// multipart blob per recovery, a pull-mode client fetches the set's
// chunk recipe (GET /api/cas/recipe/{approach}/{id}), diffs the chunk
// digests against its local content-addressed cache, and fetches only
// the missing chunks (GET /api/cas/chunk/{hash}) — in parallel, with
// per-chunk digest verification and HTTP Range resume after connection
// resets. Network cost becomes O(changed chunks), mirroring what the
// CAS layer already does for disk.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/mmm-go/mmm/internal/core"
	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// PullChunk is one chunk reference in a pull manifest, in blob order.
// Hash addresses the logical (uncompressed) chunk bytes; Size is their
// logical length. The compact keys match cas.RecipeChunk: manifests for
// multi-thousand-model sets stay small.
type PullChunk struct {
	Hash string `json:"h"`
	Size int64  `json:"s"`
}

// PullManifest is the response of GET /api/cas/recipe/{approach}/{id}:
// everything a client needs to rebuild a set's parameter blob from
// individually addressable chunks.
type PullManifest struct {
	Arch      *nn.Architecture `json:"arch"`
	NumModels int              `json:"num_models"`
	// Codec is the codec ID the set was saved with — provenance only;
	// chunk bodies on the wire are always decoded logical bytes.
	Codec string `json:"codec,omitempty"`
	// Size is the logical parameter-blob size: the sum of chunk sizes
	// and exactly NumModels × Arch.ParamBytes().
	Size   int64       `json:"size"`
	Chunks []PullChunk `json:"chunks"`
}

// maxPullManifestBytes bounds a pull manifest document on the wire.
// A manifest row costs ~80 bytes; 16 MiB covers sets far beyond the
// 2 GiB params cap while keeping a corrupt length from allocating
// unboundedly.
const maxPullManifestBytes = 1 << 24

// DecodePullManifest parses and strictly validates a wire pull
// manifest. Every field a client will use for allocation or addressing
// is cross-checked — sizes against the architecture, chunk digests for
// shape, the chunk-size sum against the declared total — so a corrupt
// or malicious manifest fails here instead of driving bad fetches.
func DecodePullManifest(data []byte) (*PullManifest, error) {
	if len(data) > maxPullManifestBytes {
		return nil, fmt.Errorf("server: pull manifest exceeds %d bytes", maxPullManifestBytes)
	}
	var m PullManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("server: parsing pull manifest: %w", err)
	}
	if m.Arch == nil {
		return nil, fmt.Errorf("server: pull manifest missing architecture")
	}
	if err := m.Arch.Validate(); err != nil {
		return nil, fmt.Errorf("server: pull manifest architecture: %w", err)
	}
	if m.NumModels <= 0 {
		return nil, fmt.Errorf("server: pull manifest has no models")
	}
	per := int64(m.Arch.ParamBytes())
	want := per * int64(m.NumModels)
	if m.Size != want {
		return nil, fmt.Errorf("server: pull manifest size %d, want %d (%d models × %d bytes)",
			m.Size, want, m.NumModels, per)
	}
	if len(m.Chunks) == 0 {
		return nil, fmt.Errorf("server: pull manifest has no chunks")
	}
	var total int64
	for i, c := range m.Chunks {
		if !validChunkHash(c.Hash) {
			return nil, fmt.Errorf("server: pull manifest chunk %d has malformed digest %q", i, c.Hash)
		}
		if c.Size <= 0 || c.Size > m.Size-total {
			return nil, fmt.Errorf("server: pull manifest chunk %d size %d overruns blob size %d", i, c.Size, m.Size)
		}
		total += c.Size
	}
	if total != m.Size {
		return nil, fmt.Errorf("server: pull manifest chunks sum to %d bytes, want %d", total, m.Size)
	}
	return &m, nil
}

// validChunkHash reports whether h has the shape of a content address:
// exactly 64 lowercase hex digits.
func validChunkHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// pullStatus maps a recipe-resolution error onto an HTTP status. Sets
// that exist but cannot be served chunk-wise are 404 with the
// pull_unavailable code — a routing answer ("not here, use the
// multipart path"), not a data-loss answer.
func pullStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrPullUnavailable):
		return http.StatusNotFound
	default:
		return recoverStatus(err)
	}
}

// handlePullRecipe serves the chunk-level transfer manifest of a set:
// the architecture plus the ordered chunk digest list of its
// concatenated parameter blob. Only full snapshots saved through the
// dedup layer have one; everything else answers 404/pull_unavailable so
// clients fall back to the multipart path.
func (s *Server) handlePullRecipe(w http.ResponseWriter, r *http.Request) {
	a, ok := s.approach(w, r)
	if !ok {
		return
	}
	ps, ok := a.(core.PullSourcer)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("approach does not serve chunk transfer: %w", core.ErrPullUnavailable))
		return
	}
	src, err := ps.PullSource(r.PathValue("id"))
	if err != nil {
		writeError(w, pullStatus(err), err)
		return
	}
	recipe, err := s.cas.Recipe(src.ParamsKey)
	switch {
	case err == nil:
	case backend.IsNotFound(err):
		writeError(w, http.StatusNotFound,
			fmt.Errorf("set %q is not chunk-addressed (saved without dedup): %w",
				r.PathValue("id"), core.ErrPullUnavailable))
		return
	default:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	m := PullManifest{
		Arch:      src.Arch,
		NumModels: src.NumModels,
		Codec:     src.Codec,
		Size:      recipe.Size,
		Chunks:    make([]PullChunk, len(recipe.Chunks)),
	}
	for i, c := range recipe.Chunks {
		m.Chunks[i] = PullChunk{Hash: c.Hash, Size: c.Size}
	}
	writeJSON(w, http.StatusOK, m)
}

// handleChunk serves one chunk's logical bytes by content address.
// Bodies go through http.ServeContent, so single ranges, multiple
// ranges, suffix ranges, If-Range, and 416 for ranges past EOF all
// follow RFC 9110 without hand-rolled code — range support is what
// makes mid-chunk resume possible for clients. The ETag is the content
// address itself: a chunk's bytes can never change under its hash, so
// resumed requests always validate.
//
// The chunk body's logical size must be passed as ?s= — stored bodies
// may be codec-framed, and decoding one needs the logical length the
// recipe promises. Clients read it from the pull manifest.
func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !validChunkHash(hash) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed chunk digest %q", hash))
		return
	}
	size, err := strconv.ParseInt(r.URL.Query().Get("s"), 10, 64)
	if err != nil || size <= 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("chunk request needs a positive logical size (?s=): %q", r.URL.Query().Get("s")))
		return
	}
	data, err := s.cas.GetChunk(hash, size)
	switch {
	case err == nil:
	case backend.IsNotFound(err):
		writeError(w, http.StatusNotFound, fmt.Errorf("no chunk stored under digest %s", hash))
		return
	case errors.Is(err, cas.ErrCorrupt):
		writeError(w, http.StatusInternalServerError, fmt.Errorf("%v: %w", err, core.ErrCorruptBlob))
		return
	default:
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("ETag", `"`+hash+`"`)
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(data))
}
