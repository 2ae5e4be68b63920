package cas

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// The per-set chunk index is a compact binary rendition of a params
// blob's recipe, persisted alongside the set's metadata. Selective
// recovery reads it once (one small blob, cacheable) and resolves
// exactly the chunks a model's byte range needs — no full-recipe JSON
// parse, no chunk probing, O(models-recovered) instead of
// O(blob-size) store traffic on the warm path.
//
// Wire format (all integers unsigned varints unless noted):
//
//	magic   "MMCI" (4 bytes)
//	version 1      (1 byte)
//	stride         bytes per model in the fixed-stride params layout
//	size           logical blob size
//	nchunks        number of chunk records
//	nchunks × ( hash [32 raw bytes] | chunkSize )
//
// Chunk records are in blob order; their sizes must sum to size.
// Decoding is strict — any deviation is corruption, surfaced as an
// error wrapping ErrCorrupt and mapped to the caller's corruption
// sentinel (never a panic; see FuzzIndexDecode).

// indexMagic and indexVersion pin the wire format.
const (
	indexMagic   = "MMCI"
	indexVersion = 1
)

// IndexChunk is one chunk reference in an Index, in blob order: the
// content address and logical length, exactly what a recipe records.
type IndexChunk = RecipeChunk

// Index locates chunks by byte range inside one logical blob.
type Index struct {
	// Stride is the bytes every model occupies in the blob (the
	// fixed-stride layout all approaches use); 0 when unknown.
	Stride int64
	// Size is the logical blob size.
	Size int64
	// Chunks lists the blob's chunks in order.
	Chunks []IndexChunk
}

// BuildIndex derives the index of a blob from its recipe, whose chunk
// list it shares.
func BuildIndex(stride int64, r Recipe) Index {
	return Index{Stride: stride, Size: r.Size, Chunks: r.Chunks}
}

// Encode renders the index in its wire format.
func (ix Index) Encode() []byte {
	out := make([]byte, 0, 5+3*binary.MaxVarintLen64+len(ix.Chunks)*(sha256.Size+binary.MaxVarintLen64))
	out = append(out, indexMagic...)
	out = append(out, indexVersion)
	out = binary.AppendUvarint(out, uint64(ix.Stride))
	out = binary.AppendUvarint(out, uint64(ix.Size))
	out = binary.AppendUvarint(out, uint64(len(ix.Chunks)))
	for _, c := range ix.Chunks {
		raw, err := hex.DecodeString(c.Hash)
		if err != nil || len(raw) != sha256.Size {
			// Hashes come from recipes, which are validated on decode;
			// an unencodable hash is a programming error, but corrupt
			// output would be worse than a short one — emit zeros.
			raw = make([]byte, sha256.Size)
		}
		out = append(out, raw...)
		out = binary.AppendUvarint(out, uint64(c.Size))
	}
	return out
}

// corruptIndex builds a DecodeIndex error wrapping ErrCorrupt.
func corruptIndex(format string, args ...any) error {
	return fmt.Errorf("%w: chunk index: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// DecodeIndex parses and validates wire-format index bytes. Every
// failure wraps ErrCorrupt; malformed input never panics and never
// allocates more than the input's length justifies.
func DecodeIndex(raw []byte) (Index, error) {
	if len(raw) < len(indexMagic)+1 {
		return Index{}, corruptIndex("truncated header (%d bytes)", len(raw))
	}
	if string(raw[:len(indexMagic)]) != indexMagic {
		return Index{}, corruptIndex("bad magic %q", raw[:len(indexMagic)])
	}
	if raw[len(indexMagic)] != indexVersion {
		return Index{}, corruptIndex("unsupported version %d", raw[len(indexMagic)])
	}
	rest := raw[len(indexMagic)+1:]
	next := func(what string) (int64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v > 1<<62 {
			return 0, corruptIndex("garbled %s", what)
		}
		rest = rest[n:]
		return int64(v), nil
	}
	stride, err := next("stride")
	if err != nil {
		return Index{}, err
	}
	size, err := next("size")
	if err != nil {
		return Index{}, err
	}
	nchunks, err := next("chunk count")
	if err != nil {
		return Index{}, err
	}
	// Each record needs at least hash + one varint byte; an nchunks the
	// remaining bytes cannot hold is corruption, caught before any
	// allocation sized by it.
	if nchunks > int64(len(rest))/(sha256.Size+1) {
		return Index{}, corruptIndex("chunk count %d exceeds payload", nchunks)
	}
	ix := Index{Stride: stride, Size: size, Chunks: make([]IndexChunk, 0, nchunks)}
	var total int64
	for i := int64(0); i < nchunks; i++ {
		if int64(len(rest)) < sha256.Size+1 {
			return Index{}, corruptIndex("truncated at chunk %d", i)
		}
		hash := hex.EncodeToString(rest[:sha256.Size])
		rest = rest[sha256.Size:]
		csize, err := next("chunk size")
		if err != nil {
			return Index{}, err
		}
		if csize <= 0 {
			return Index{}, corruptIndex("chunk %d has size %d", i, csize)
		}
		total += csize
		ix.Chunks = append(ix.Chunks, IndexChunk{Hash: hash, Size: csize})
	}
	if len(rest) != 0 {
		return Index{}, corruptIndex("%d trailing bytes", len(rest))
	}
	if total != size {
		return Index{}, corruptIndex("chunk sizes sum to %d, want %d", total, size)
	}
	return ix, nil
}

// IndexSpan is one chunk's contribution to a located byte range.
type IndexSpan struct {
	Hash string // chunk content address
	Size int64  // full logical chunk length (what GetChunk needs)
	From int64  // first wanted byte within the chunk
	To   int64  // one past the last wanted byte within the chunk
}

// Locate resolves the byte range [off, off+length) to the chunk spans
// covering it, in blob order. The range must lie inside the blob.
func (ix Index) Locate(off, length int64) ([]IndexSpan, error) {
	if off < 0 || length < 0 || off+length > ix.Size {
		return nil, fmt.Errorf("cas: index range [%d,%d) outside blob of %d bytes", off, off+length, ix.Size)
	}
	var spans []IndexSpan
	var pos int64
	for _, c := range ix.Chunks {
		lo, hi := pos, pos+c.Size
		pos = hi
		if hi <= off {
			continue
		}
		if lo >= off+length {
			break
		}
		sp := IndexSpan{Hash: c.Hash, Size: c.Size, From: 0, To: c.Size}
		if off > lo {
			sp.From = off - lo
		}
		if off+length < hi {
			sp.To = off + length - lo
		}
		spans = append(spans, sp)
	}
	return spans, nil
}
