package core

import (
	"errors"
	"fmt"
	"strings"

	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/backend"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// Deduplicated storage: WithDedup routes every blob an approach writes
// through the content-addressed chunk store (internal/storage/cas)
// living inside the same blob store under the reserved "cas/"
// namespace. Only the write path is opt-in; the read path below is
// always CAS-aware, trying the raw blob first and falling back to a
// recipe, so one store can hold a mix of deduplicated and plain sets
// and every set stays readable either way.

// resolveBlob runs one operation against a logical blob: raw on the
// plain blob if present, else viaCAS through its recipe. When both are
// missing the raw error is returned so backend.IsNotFound semantics are
// preserved; a recipe or chunk that no longer reads back surfaces as
// ErrCorruptBlob.
func resolveBlob[T any](raw, viaCAS func() (T, error)) (T, error) {
	v, err := raw()
	if err == nil || !backend.IsNotFound(err) {
		return v, err
	}
	v, cerr := viaCAS()
	if cerr == nil {
		return v, nil
	}
	if backend.IsNotFound(cerr) {
		return v, err
	}
	return v, mapCorrupt(cerr)
}

// mapCorrupt translates the CAS layer's corruption sentinel — a
// garbled recipe, or a chunk body that is damaged, names an unknown
// codec, or fails to decode — into the core-level ErrCorruptBlob
// callers test for.
func mapCorrupt(err error) error {
	if errors.Is(err, cas.ErrCorrupt) {
		return fmt.Errorf("core: %v: %w", err, ErrCorruptBlob)
	}
	return err
}

// getBlob reads a logical blob, raw or deduplicated.
func getBlob(st Stores, key string) ([]byte, error) {
	return resolveBlob(
		func() ([]byte, error) { return st.Blobs.Get(key) },
		func() ([]byte, error) { return cas.For(st.Blobs).Get(key) })
}

// getBlobRange is getBlob for a byte range.
func getBlobRange(st Stores, key string, off, length int64) ([]byte, error) {
	return resolveBlob(
		func() ([]byte, error) { return st.Blobs.GetRange(key, off, length) },
		func() ([]byte, error) { return cas.For(st.Blobs).GetRange(key, off, length) })
}

// blobSize reports a logical blob's size, raw or deduplicated.
func blobSize(st Stores, key string) (int64, error) {
	return resolveBlob(
		func() (int64, error) { return st.Blobs.Size(key) },
		func() (int64, error) { return cas.For(st.Blobs).Size(key) })
}

// deleteBlob removes a logical blob and returns the physical bytes
// actually freed. A raw blob frees its own size; a deduplicated blob
// releases its references and frees only the recipe plus chunks whose
// refcount reached zero — chunks still shared with other sets cost
// nothing to "delete". Missing keys free zero bytes without error.
func deleteBlob(st Stores, key string) (int64, error) {
	return resolveBlob(
		func() (int64, error) {
			size, err := st.Blobs.Size(key)
			if err != nil {
				return 0, err
			}
			if err := st.Blobs.Delete(key); err != nil {
				return size, err
			}
			// Drop any cached parse of the raw blob (per-set chunk
			// indexes live on the serving-tier cache under their key).
			cas.For(st.Blobs).InvalidateRaw(key)
			return size, nil
		},
		func() (int64, error) { return cas.For(st.Blobs).Release(key, nil) })
}

// GCReport summarizes a dedup garbage-collection pass.
type GCReport = cas.GCReport

// GCStore deletes every deduplicated chunk no recipe references (and
// whose persisted refcount is zero) from the store's CAS layer,
// recording the deletions in reg (nil means obs.Default is skipped; the
// cas package tolerates nil). Releases already delete chunks eagerly
// when their refcount reaches zero, so GCStore mainly reclaims debris
// left by crashes — typically after an Fsck -repair pass.
func GCStore(st Stores, reg *obs.Registry) (GCReport, error) {
	return cas.For(st.Blobs).GC(reg)
}

// blobKeysWithPrefix enumerates the logical blob keys under prefix:
// raw blobs plus the logical keys of CAS recipes. The CAS namespace
// itself (chunks, refcounts, recipes) is never reported — those are
// physical storage, not logical blobs.
func blobKeysWithPrefix(st Stores, prefix string) ([]string, error) {
	keys, err := st.Blobs.Keys()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, k := range keys {
		if logical, ok := cas.LogicalKey(k); ok {
			if strings.HasPrefix(logical, prefix) {
				out = append(out, logical)
			}
			continue
		}
		if cas.IsKey(k) {
			continue
		}
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out, nil
}
