package core

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"github.com/mmm-go/mmm/internal/hashing"
)

// Update's hash info is one table per set, the blob hashes.bin: a
// fixed header followed by the raw SHA-256 digest of every layer of
// every model, in (model, param) order.
//
//	magic   "MMHT"  (4 bytes)
//	version 1       (uint32, little-endian like the two counts)
//	n               models in the set
//	p               parameter tensors per model
//	n·p × digest    32 raw bytes each
//
// Row m — model m's p digests — lives at hashHeaderSize + m·p·32, so a
// reader that wants a few models' hashes fetches those rows with
// ranged reads and never touches the rest. The header repeats what the
// set's metadata and architecture already fix, which is what makes a
// table that lost its tail or belongs to another set detectable before
// any digest is trusted.
//
// Sets saved before the table existed keep their hash info as a JSON
// document of hex strings in update_hashes; their metadata lacks the
// hash_table mark. loadHashes decodes either form into the same
// in-memory table. Writers only ever emit the table, and a binary from
// before it finds no update_hashes document for a new set: it fails
// with not-found rather than reading anything it could misinterpret.
const (
	hashTableMagic   = "MMHT"
	hashTableVersion = 1
	hashHeaderSize   = 16
)

// hashTable is a set's hash info in memory, in its stored form: raw is
// the header plus n·p digests.
type hashTable struct {
	n, p int
	raw  []byte
}

// hashRowSize is the byte length of one model's row.
func hashRowSize(p int) int64 { return int64(p) * hashing.Size }

// hashRowOffset is where model m's row starts inside the stored table.
func hashRowOffset(m, p int) int64 { return hashHeaderSize + int64(m)*hashRowSize(p) }

// newHashTable returns a zeroed table for n models of p parameter
// tensors each.
func newHashTable(n, p int) hashTable {
	raw := make([]byte, hashRowOffset(n, p))
	copy(raw, hashTableMagic)
	binary.LittleEndian.PutUint32(raw[4:], hashTableVersion)
	binary.LittleEndian.PutUint32(raw[8:], uint32(n))
	binary.LittleEndian.PutUint32(raw[12:], uint32(p))
	return hashTable{n: n, p: p, raw: raw}
}

// row is model m's p digests, back to back.
func (t hashTable) row(m int) []byte {
	return t.raw[hashRowOffset(m, t.p):hashRowOffset(m+1, t.p)]
}

// at is the digest of model m's parameter tensor p.
func (t hashTable) at(m, p int) []byte { return hashAt(t.row(m), p) }

// hashAt is the digest of parameter tensor p within one model's row.
func hashAt(row []byte, p int) []byte { return row[p*hashing.Size : (p+1)*hashing.Size] }

// corruptHashes builds an error wrapping ErrCorruptBlob about set id's
// hash info.
func corruptHashes(id, format string, args ...any) error {
	return fmt.Errorf("core: hash info of %q: %s: %w", id, fmt.Sprintf(format, args...), ErrCorruptBlob)
}

// decodeHashHeader reads the shape a stored table of size bytes
// declares in its header hdr. A table whose size is not exactly what
// its header implies lost bytes or gained some.
func decodeHashHeader(id string, hdr []byte, size int64) (n, p int, err error) {
	if len(hdr) < hashHeaderSize || string(hdr[:4]) != hashTableMagic {
		return 0, 0, corruptHashes(id, "not a hash table")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != hashTableVersion {
		return 0, 0, corruptHashes(id, "unknown hash table version %d", v)
	}
	n, p = int(binary.LittleEndian.Uint32(hdr[8:])), int(binary.LittleEndian.Uint32(hdr[12:]))
	if want := hashRowOffset(n, p); size != want {
		return 0, 0, corruptHashes(id, "table has %d bytes, its header implies %d", size, want)
	}
	return n, p, nil
}

// checkHashShape holds stored hash info to the shape the set's metadata
// and architecture fix: n models of p parameter tensors. Hash info of
// any other shape cannot verify or diff this set, so it is corruption.
func checkHashShape(id string, gotN, gotP, n, p int) error {
	if gotN != n || gotP != p {
		return corruptHashes(id, "covers %d models × %d params, set has %d × %d", gotN, gotP, n, p)
	}
	return nil
}

// legacyHashes decodes the hash document of a set saved before the
// table existed — every model's per-layer hashes as hex strings,
// aligned with the architecture's ParamKeys order — into a table. Rows
// of different lengths have no table form.
func (u *Update) legacyHashes(id string) (hashTable, error) {
	var doc struct {
		Models [][]string `json:"models"`
	}
	if err := u.stores.Docs.Get(updateHashCollection, id, &doc); err != nil {
		return hashTable{}, fmt.Errorf("core: loading hash info: %w", err)
	}
	p := 0
	if len(doc.Models) > 0 {
		p = len(doc.Models[0])
	}
	t := newHashTable(len(doc.Models), p)
	for m, hashes := range doc.Models {
		if len(hashes) != p {
			return hashTable{}, corruptHashes(id, "document has %d hashes for model %d, %d for model 0", len(hashes), m, p)
		}
		for i, h := range hashes {
			if len(h) != hex.EncodedLen(hashing.Size) {
				return hashTable{}, corruptHashes(id, "hash of model %d param %d has %d characters", m, i, len(h))
			}
			if _, err := hex.Decode(t.at(m, i), []byte(h)); err != nil {
				return hashTable{}, corruptHashes(id, "hash of model %d param %d: %v", m, i, err)
			}
		}
	}
	return t, nil
}

// loadHashes reads the whole hash info of the set meta, which must
// cover p parameter tensors per model: the table blob as stored, or a
// legacy document decoded into the same form.
func (u *Update) loadHashes(meta setMeta, p int) (hashTable, error) {
	id := meta.SetID
	var t hashTable
	var err error
	if meta.HashTable {
		if t.raw, err = u.getBlob(u.layout.blobKey(id, hashFile)); err != nil {
			return hashTable{}, fmt.Errorf("core: loading hash info: %w", err)
		}
		t.n, t.p, err = decodeHashHeader(id, t.raw, int64(len(t.raw)))
	} else {
		t, err = u.legacyHashes(id)
	}
	if err != nil {
		return hashTable{}, err
	}
	return t, checkHashShape(id, t.n, t.p, meta.NumModels, p)
}

// hashTableShape reads the header of set id's stored table, checked
// against the blob's size, without reading any digest.
func (u *Update) hashTableShape(id string) (n, p int, err error) {
	key := u.layout.blobKey(id, hashFile)
	size, err := u.blobSize(key)
	if err != nil {
		return 0, 0, fmt.Errorf("core: loading hash info: %w", err)
	}
	if size < hashHeaderSize {
		return 0, 0, corruptHashes(id, "table has %d bytes, no room for its header", size)
	}
	hdr, err := u.getBlobRange(key, 0, hashHeaderSize)
	if err != nil {
		return 0, 0, fmt.Errorf("core: loading hash info: %w", err)
	}
	return decodeHashHeader(id, hdr, size)
}

// openHashRows prepares row-wise reads of the hash info of the set
// meta: the returned function fetches one model's row. A table's header
// and size are checked here and each row is then one ranged read; a
// legacy document can only be read whole.
func (u *Update) openHashRows(meta setMeta, p int) (func(m int) ([]byte, error), error) {
	if !meta.HashTable {
		t, err := u.loadHashes(meta, p)
		if err != nil {
			return nil, err
		}
		return func(m int) ([]byte, error) { return t.row(m), nil }, nil
	}
	id := meta.SetID
	gotN, gotP, err := u.hashTableShape(id)
	if err != nil {
		return nil, err
	}
	if err := checkHashShape(id, gotN, gotP, meta.NumModels, p); err != nil {
		return nil, err
	}
	key := u.layout.blobKey(id, hashFile)
	return func(m int) ([]byte, error) {
		return u.getBlobRange(key, hashRowOffset(m, p), hashRowSize(p))
	}, nil
}
