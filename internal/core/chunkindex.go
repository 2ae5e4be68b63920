package core

import (
	"fmt"
	"strings"

	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// Per-set chunk index: dedup saves persist a compact binary index of
// the params blob's chunks (cas.Index) at <prefix>/<setID>/params.idx,
// inside the same commit boundary as the rest of the set's artifacts.
// Selective recovery loads it once — one tiny, cacheable blob — and
// resolves exactly the chunks each requested model's byte range needs,
// instead of going through the recipe on every ranged read. The index
// is strictly an accelerator: recovery of sets without one (plain
// saves, stores from before the index existed) falls back to ranged
// blob reads and returns identical bytes.

// chunkIndexFile is the index's file name under the set's blob prefix.
const chunkIndexFile = "params.idx"

// isChunkIndexKey reports whether a blob key names a per-set chunk
// index.
func isChunkIndexKey(key string) bool {
	return strings.HasSuffix(key, "/"+chunkIndexFile)
}

// writeChunkIndex persists the chunk index of the set's params blob.
// Only dedup saves have a recipe to index; plain saves write nothing.
// Called after the params blob and before the metadata document, so a
// committed set either has a complete index or (pre-index stores) none.
func writeChunkIndex(op *saveOp, l *layout, setID string, stride int64) error {
	if !op.dedup {
		return nil
	}
	r, err := cas.For(op.st.Blobs).Recipe(l.blobKey(setID, paramsFile))
	if err != nil {
		return fmt.Errorf("core: reading recipe for chunk index: %w", err)
	}
	ix := cas.BuildIndex(stride, r)
	if err := op.putBlobRaw(l.blobKey(setID, chunkIndexFile), ix.Encode()); err != nil {
		return fmt.Errorf("core: writing chunk index: %w", err)
	}
	return nil
}

// loadChunkIndex returns the parsed chunk index of a set's params
// blob, or nil when the set has none (not an error: the caller falls
// back to ranged reads). A present-but-undecodable index surfaces
// ErrCorruptBlob. Parsed indexes are cached on the store's serving
// tier when one is attached.
func loadChunkIndex(st Stores, l *layout, setID string) (*cas.Index, error) {
	key := l.blobKey(setID, chunkIndexFile)
	cs := cas.For(st.Blobs)
	if v, ok := cs.CachedRaw(key); ok {
		return v.(*cas.Index), nil
	}
	raw, err := st.Blobs.Get(key)
	if err != nil {
		if backend.IsNotFound(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("core: reading chunk index of %q: %w", setID, err)
	}
	ix, err := cas.DecodeIndex(raw)
	if err != nil {
		return nil, fmt.Errorf("core: chunk index of %q: %w", setID, mapCorrupt(err))
	}
	cs.CacheRaw(key, &ix, int64(len(raw)))
	return &ix, nil
}

// readViaIndex reads [off, off+length) of the indexed blob by fetching
// exactly the chunks the range overlaps — pinned against concurrent
// GC and served through the chunk cache. The result is a fresh buffer;
// cache-resident chunk bytes are copied, never aliased.
func readViaIndex(st Stores, ix *cas.Index, off, length int64) ([]byte, error) {
	spans, err := ix.Locate(off, length)
	if err != nil {
		return nil, fmt.Errorf("core: %v: %w", err, ErrCorruptBlob)
	}
	cs := cas.For(st.Blobs)
	out := make([]byte, 0, length)
	for _, sp := range spans {
		data, err := cs.GetChunk(sp.Hash, sp.Size)
		if err != nil {
			return nil, mapCorrupt(err)
		}
		out = append(out, data[sp.From:sp.To]...)
	}
	return out, nil
}
