package core

import (
	"fmt"
	"strings"

	"github.com/mmm-go/mmm/internal/storage/cas"
)

// Per-set chunk index: dedup saves persist a compact binary index of
// the params blob's chunks (cas.Index) at <prefix>/<setID>/params.idx,
// inside the same commit boundary as the rest of the set's artifacts.
// Selective recovery loads it once — one tiny, cacheable blob — and
// resolves exactly the chunks each requested model's byte range needs
// (cas.Store.GetIndexed), instead of going through the recipe on every
// ranged read. The index is strictly an accelerator: recovery of sets
// without one (plain saves, stores from before the index existed)
// falls back to ranged blob reads and returns identical bytes.

// chunkIndexFile is the index's file name under the set's blob prefix.
const chunkIndexFile = "params.idx"

// isChunkIndexKey reports whether a blob key names a per-set chunk
// index.
func isChunkIndexKey(key string) bool {
	return strings.HasSuffix(key, "/"+chunkIndexFile)
}

// loadChunkIndex returns the parsed chunk index of a set's params
// blob, or nil when the set has none (not an error: the caller falls
// back to ranged reads). A present-but-undecodable index surfaces
// ErrCorruptBlob.
func (b *approachBase) loadChunkIndex(setID string) (*cas.Index, error) {
	ix, err := b.blobs.LoadIndex(b.layout.blobKey(setID, chunkIndexFile))
	if err != nil {
		return nil, fmt.Errorf("core: chunk index of %q: %w", setID, mapCorrupt(err))
	}
	return ix, nil
}
