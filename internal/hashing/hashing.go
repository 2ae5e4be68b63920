// Package hashing computes layer-parameter hashes for the Update
// approach's change detection.
//
// The paper: "We calculate the parameter hashes for every model and
// layer and save them. We identify all changed parameters based on the
// hash information of the previous model set" — hashing lets the
// approach detect changes "without having to load the full
// representation of the previous model". SHA-256 over the raw
// little-endian float32 bytes makes hash equality imply bit equality
// for practical purposes, so applying diffs reproduces parameters
// exactly.
//
// A hash is a raw 32-byte digest, and a model's hashes are one row of
// P·Size bytes in parameter order — the unit Update's per-set hash
// table (core's hashes.bin) stores and addresses by offset. Digests are
// compared as bytes and never rendered as hex. Hashing a tensor
// serializes it through a pooled scratch buffer, so it allocates
// nothing per tensor.
package hashing

import (
	"bytes"
	"crypto/sha256"
	"sync"

	"github.com/mmm-go/mmm/internal/nn"
	"github.com/mmm-go/mmm/internal/tensor"
)

// Size is the byte length of one layer hash: a raw SHA-256 digest.
const Size = sha256.Size

// Digest is one layer hash.
type Digest = [Size]byte

// scratch holds serialization buffers between Tensor calls.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// Tensor returns the hash of a parameter tensor's raw bytes.
func Tensor(t *tensor.Tensor) Digest {
	buf := scratch.Get().(*[]byte)
	*buf = t.AppendBytes((*buf)[:0])
	sum := sha256.Sum256(*buf)
	scratch.Put(buf)
	return sum
}

// ModelList returns the hashes of m's parameters as one row: P digests
// back to back, aligned with the architecture's ParamKeys order.
func ModelList(m *nn.Model) []byte {
	params := m.Params()
	row := make([]byte, 0, len(params)*Size)
	for _, p := range params {
		sum := Tensor(p.Tensor)
		row = append(row, sum[:]...)
	}
	return row
}

// DiffKeys compares two rows of the same length and returns the
// parameter indices whose digests differ. Callers establish that the
// rows have one shape before diffing; rows of different lengths are a
// bug in the caller.
func DiffKeys(prev, cur []byte) []int {
	if len(prev) != len(cur) {
		panic("hashing: DiffKeys on rows of different lengths")
	}
	if bytes.Equal(prev, cur) {
		return nil
	}
	var changed []int
	for i := 0; i+Size <= len(cur); i += Size {
		if !bytes.Equal(prev[i:i+Size], cur[i:i+Size]) {
			changed = append(changed, i/Size)
		}
	}
	return changed
}
