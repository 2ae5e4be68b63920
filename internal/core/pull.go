package core

import (
	"fmt"

	"github.com/mmm-go/mmm/internal/nn"
)

// PullSource describes where a set's parameters live for chunk-level
// transfer: the architecture to rebuild models with and the blob key of
// the single concatenated parameter file whose CAS recipe the pull
// protocol exposes. Only full snapshots with one params blob qualify —
// derived sets (Update/Provenance deltas) and per-model layouts
// (MMlibBase) recover through chains the client cannot chunk-diff, and
// report ErrPullUnavailable instead so callers fall back to whole-blob
// recovery.
type PullSource struct {
	Arch      *nn.Architecture
	NumModels int
	// ParamsKey is the logical blob key of the concatenated parameter
	// file. Whether a CAS recipe exists under it (the set was saved
	// with dedup) is for the caller to probe: the source only proves
	// the layout is pullable.
	ParamsKey string
	// Codec is the codec ID recorded in the set's metadata.
	Codec string
}

// PullSourcer is implemented by approaches whose full snapshots can be
// served over the chunk-level pull protocol.
type PullSourcer interface {
	// PullSource resolves setID to its parameter-blob source, or an
	// error wrapping ErrPullUnavailable when the set exists but has no
	// single params blob (derived or per-model layout).
	PullSource(setID string) (PullSource, error)
}

// PullSource implements PullSourcer for sets saved by fullSave: meta
// plus the architecture blob under the approach's namespace. Derived
// sets report ErrPullUnavailable.
func (b *approachBase) PullSource(setID string) (PullSource, error) {
	meta, err := loadMeta(b.stores, b.layout, setID)
	if err != nil {
		return PullSource{}, err
	}
	if meta.Kind != "full" {
		return PullSource{}, fmt.Errorf("core: set %q is %s, not a full snapshot: %w",
			setID, meta.Kind, ErrPullUnavailable)
	}
	arch, err := b.loadArchBlob(b.layout.blobKey(setID, archFile))
	if err != nil {
		return PullSource{}, err
	}
	return PullSource{
		Arch:      arch,
		NumModels: meta.NumModels,
		ParamsKey: b.layout.blobKey(setID, paramsFile),
		Codec:     meta.Codec,
	}, nil
}
