// Package cas is the logical-blob store of the system: a
// content-addressed, deduplicating chunk store layered on top of a
// checksummed blob store, plus the one decision nothing above it has to
// make — whether a logical blob is stored as one raw blob or as a
// recipe over shared chunks.
//
// Chunked blobs are split into deterministic chunks, each chunk is
// stored once under its SHA-256 address, and a per-key "recipe" records
// how to reassemble the original bytes. A chunk is live while a recipe
// lists it: an in-memory census of the recipes, built from them on
// first use, lets deletes free shared chunks eagerly, and GC() sweeps
// whatever no recipe lists. Nothing about liveness is persisted.
//
// The seam. A *Store is the whole API for logical blobs. PutRaw and
// Put (PutEncoded) choose the representation at write time; Get,
// GetRange, Size, Delete and Keys work on either, so callers never ask
// which one a key has. Reads try the raw blob first and fall back to
// the recipe. That probe costs a deduplicated read one miss on the
// backend, and it was kept on measurement: the benchmark's dedup-serve
// workload counts cas.raw_probe_miss_per_recover = 1.02 — one
// in-memory miss per recover of about 46 ms — which does not pay for
// recording the representation in every set's metadata. Errors are
// classified here, once: a key with neither representation is the raw
// blob's NotFound; a recipe or chunk index that does not parse, a chunk
// one of them names that is absent or quarantined, and a chunk body
// that no longer yields its content address are all ErrCorrupt.
//
// Ownership. A blob store holds its one Store (see For); components
// take it when they are built. The census, the pins of in-flight reads
// and the serving-tier cache therefore have exactly the lifetime
// and the sharing of the blob store itself; the package keeps no
// registry of stores and no other mutable package-level state.
//
// Everything the package persists lives inside the blob store under
// the reserved "cas/" namespace:
//
//	cas/chunks/<hh>/<sha256-hex>   chunk payload (hh = first two hex digits)
//	cas/recipes/<logical key>      JSON {size, chunks:[{h,s}]}
//
// Stores written before the census also hold persisted reference
// counts under cas/refs/; nothing reads them any more.
//
// Writing through the blob store (rather than the raw backend) means
// every CAS artifact gets the store's CRC32C manifests for free, is
// captured by the crash-simulation backend's mutation trace, and is
// covered by fsck's checksum sweep.
package cas

// DefaultChunkSize is the fixed chunk size used when a caller passes
// chunkSize <= 0. It is deliberately larger than any single test
// tensor: real dedup granularity comes from the Hints callers supply
// (model strides and diff-entry boundaries), with the fixed size only
// bounding worst-case chunk length on large segments.
const DefaultChunkSize = 64 * 1024

// Hints steer chunk-boundary placement so that the chunking of a blob
// is stable under the edits the approaches actually make. A params.bin
// laid out as N back-to-back models chunked with Stride = bytes-per-
// model yields identical chunks for every unchanged model no matter
// which neighbours changed; a diff.bin chunked at its per-entry
// Boundaries dedups repeated tensor diffs without smearing entries
// across chunks.
type Hints struct {
	// Stride > 0 forces a split point at every multiple of Stride.
	Stride int
	// Boundaries lists additional explicit split offsets (need not be
	// sorted or unique; out-of-range values are ignored).
	Boundaries []int
}

// Chunk is one contiguous piece of a blob. Data aliases the input
// slice — callers must not mutate the blob while chunks are in use.
type Chunk struct {
	Offset int
	Data   []byte
}

// Chunks deterministically splits data: split points are every
// multiple of hints.Stride, every hint boundary, and fixed chunkSize
// offsets within each resulting segment. The output covers data
// exactly, in order, with no empty chunks; identical (data, chunkSize,
// hints) always produce identical chunks.
func Chunks(data []byte, chunkSize int, hints Hints) []Chunk {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	if len(data) == 0 {
		return nil
	}
	// Collect forced split points as a sorted, deduplicated offset set.
	marks := map[int]bool{}
	if hints.Stride > 0 {
		for off := hints.Stride; off < len(data); off += hints.Stride {
			marks[off] = true
		}
	}
	for _, b := range hints.Boundaries {
		if b > 0 && b < len(data) {
			marks[b] = true
		}
	}
	splits := make([]int, 0, len(marks)+2)
	splits = append(splits, 0)
	for off := range marks {
		splits = append(splits, off)
	}
	sortInts(splits)
	splits = append(splits, len(data))

	var out []Chunk
	for i := 0; i+1 < len(splits); i++ {
		lo, hi := splits[i], splits[i+1]
		for off := lo; off < hi; off += chunkSize {
			end := off + chunkSize
			if end > hi {
				end = hi
			}
			out = append(out, Chunk{Offset: off, Data: data[off:end]})
		}
	}
	return out
}

// sortInts is a small insertion-friendly sort; split sets are tiny
// compared to the chunk payloads, so simplicity beats pulling in
// sort.Slice's reflection here.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
