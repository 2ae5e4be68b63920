package core

import (
	"errors"
	"fmt"

	"github.com/mmm-go/mmm/internal/obs"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// Deduplicated storage: WithDedup routes every blob an approach writes
// through the content-addressed chunk store (internal/storage/cas)
// living inside the same blob store under the reserved "cas/"
// namespace. Only the write path is opt-in: every approach reads,
// sizes and deletes its blobs through the blob store's cas.Store, which
// alone decides whether a key is a raw blob or a recipe, so one store
// can hold a mix of deduplicated and plain sets and every set stays
// readable either way. What is left here is the translation of that
// layer's corruption sentinel into this package's.

// mapCorrupt translates the CAS layer's corruption sentinel — a
// garbled recipe or chunk index, a chunk a recipe names that is gone,
// or a chunk body that is damaged, names an unknown codec, or fails to
// decode — into the core-level ErrCorruptBlob callers test for.
func mapCorrupt(err error) error {
	if errors.Is(err, cas.ErrCorrupt) {
		return fmt.Errorf("core: %v: %w", err, ErrCorruptBlob)
	}
	return err
}

// getBlob reads a logical blob.
func (b *approachBase) getBlob(key string) ([]byte, error) {
	data, err := b.blobs.Get(key)
	return data, mapCorrupt(err)
}

// getBlobRange is getBlob for a byte range.
func (b *approachBase) getBlobRange(key string, off, length int64) ([]byte, error) {
	data, err := b.blobs.GetRange(key, off, length)
	return data, mapCorrupt(err)
}

// blobSize reports a logical blob's size.
func (b *approachBase) blobSize(key string) (int64, error) {
	n, err := b.blobs.Size(key)
	return n, mapCorrupt(err)
}

// GCReport summarizes a dedup garbage-collection pass.
type GCReport = cas.GCReport

// GCStore deletes every deduplicated chunk no recipe references from
// the store's CAS layer, recording the deletions in reg (nil records
// into obs.Default), and rebuilds the layer's in-memory recipe census.
// Releases already delete chunks eagerly when the last recipe listing
// them goes, so GCStore mainly reclaims debris left by crashes —
// typically after an Fsck -repair pass, which also lets a census that
// met an unreadable recipe be built again.
func GCStore(st Stores, reg *obs.Registry) (GCReport, error) {
	return cas.For(st.Blobs).GC(reg)
}
