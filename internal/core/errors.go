package core

import (
	"errors"
	"syscall"

	"github.com/mmm-go/mmm/internal/storage/blobstore"
)

// Sentinel errors of the management layer. They are wrapped with
// additional context (set IDs, model indices) via %w, so callers match
// them with errors.Is instead of string comparison.
var (
	// ErrSetNotFound reports that no set is saved under the requested
	// set ID (in the approach's own namespace).
	ErrSetNotFound = errors.New("core: set not found")

	// ErrCorruptBlob reports that a stored artifact failed an integrity
	// check during recovery: wrong size, truncated framing, a layer
	// hash mismatch after applying a diff, or trailing bytes.
	ErrCorruptBlob = errors.New("core: corrupt blob")

	// ErrBudgetExceeded reports that a request exceeds a configured
	// resource budget (e.g. the server's per-save payload limit).
	ErrBudgetExceeded = errors.New("core: budget exceeded")

	// ErrBaseMismatch reports a derived save whose set is structurally
	// incompatible with its declared base (different architecture or
	// parameter count). Accepting such a save would persist a set that
	// recovers corrupt or not at all.
	ErrBaseMismatch = errors.New("core: set incompatible with base")

	// ErrChecksumMismatch reports that a stored blob's bytes no longer
	// match the checksums recorded when it was written — bit rot or
	// external tampering, as opposed to the structural damage
	// ErrCorruptBlob covers. It aliases the blob store's sentinel so
	// callers can match either layer's errors with errors.Is.
	ErrChecksumMismatch = blobstore.ErrChecksumMismatch

	// ErrPullUnavailable reports that a set cannot be served over the
	// chunk-level pull protocol — it has no single content-addressed
	// parameter blob (derived sets, per-model layouts, or sets saved
	// without dedup). Callers fall back to whole-blob recovery.
	ErrPullUnavailable = errors.New("core: pull transfer unavailable for set")

	// ErrNoSpace reports that the storage backend ran out of space
	// mid-operation. Saves roll back cleanly when this happens; the
	// client-facing sentinel lets callers distinguish "disk full, retry
	// after freeing space" from data-dependent save failures.
	ErrNoSpace = errors.New("core: storage out of space")

	// ErrSetExists reports an explicit-ID save (SaveRequest.SetID)
	// whose ID is already taken in the approach's namespace: stored, or
	// claimed by a save of the same approach still in flight. Set IDs
	// are immutable once written — replication relies on "present means
	// complete" — so the save is rejected rather than overwriting.
	ErrSetExists = errors.New("core: set already exists")
)

// IsNoSpace matches disk-full conditions at any layer: the core
// sentinel (wire round-trips) or a raw syscall.ENOSPC escaping the
// filesystem backend.
func IsNoSpace(err error) bool {
	return errors.Is(err, ErrNoSpace) || errors.Is(err, syscall.ENOSPC)
}
