package core

import (
	"sort"
	"strings"

	"github.com/mmm-go/mmm/internal/storage/cas"
)

// Storage accounting (du): with deduplication the question "how big is
// this set" splits in two — the logical bytes its blobs hold when
// reassembled, and the physical bytes actually stored. Du answers both
// per set and store-wide, which is what makes dedup savings visible.

// DuSet is one committed set's storage occupancy.
type DuSet struct {
	// Approach is the lower-case approach name owning the set.
	Approach string `json:"approach"`
	SetID    string `json:"set_id"`
	// LogicalBytes is what the set's blobs hold when reassembled.
	LogicalBytes int64 `json:"logical_bytes"`
	// PhysicalBytes is the blob payload the set would occupy alone:
	// raw blob bytes plus the distinct chunks its recipes reference
	// (at their stored — possibly compressed — sizes). Chunks shared
	// between sets count toward each referencing set, so this column
	// sums to more than the store holds whenever dedup is saving space.
	PhysicalBytes int64 `json:"physical_bytes"`
	// Codec is the compression codec ID the set was saved with (""
	// for none).
	Codec string `json:"codec,omitempty"`
}

// DuReport is the result of a storage-accounting scan.
type DuReport struct {
	// Sets lists every committed set, ordered by approach then set ID.
	Sets []DuSet `json:"sets"`
	// LogicalBytes totals the reassembled size of every blob in the
	// managed namespaces (raw blobs plus recipe-recorded sizes).
	LogicalBytes int64 `json:"logical_bytes"`
	// PhysicalBytes totals what the store actually holds: raw blobs,
	// each chunk once, and the recipe documents.
	PhysicalBytes int64 `json:"physical_bytes"`
	// RawBytes, ChunkBytes, and RecipeBytes break PhysicalBytes down.
	RawBytes    int64 `json:"raw_bytes"`
	ChunkBytes  int64 `json:"chunk_bytes"`
	RecipeBytes int64 `json:"recipe_bytes"`
	// Chunks is the number of distinct chunks stored.
	Chunks int `json:"chunks"`
	// QuarantinedCount and QuarantinedBytes account the corrupt bodies
	// the scrubber moved aside. They are outside PhysicalBytes: the data
	// is dead weight pending repair or fsck cleanup, not store content.
	QuarantinedCount int   `json:"quarantined_count,omitempty"`
	QuarantinedBytes int64 `json:"quarantined_bytes,omitempty"`
	// DedupRatioPercent is LogicalBytes*100/PhysicalBytes — over 100
	// means deduplication is saving space.
	DedupRatioPercent int64 `json:"dedup_ratio_percent"`
}

// Du scans the managed blob namespaces and reports logical versus
// physical occupancy per set and store-wide. It never modifies the
// store; unreadable recipes are skipped here and reported by Fsck.
func Du(st Stores) (*DuReport, error) {
	scan, err := cas.ScanStore(st.Blobs)
	if err != nil {
		return nil, err
	}
	keys, err := st.Blobs.Keys()
	if err != nil {
		return nil, err
	}
	report := &DuReport{Sets: []DuSet{}}

	// Raw (non-deduplicated) blob sizes across the managed namespaces.
	rawSizes := map[string]int64{}
	for _, k := range keys {
		if cas.IsKey(k) || ownedPrefix(k) == "" {
			continue
		}
		size, err := st.Blobs.Size(k)
		if err != nil {
			continue // deleted mid-scan; damage is Fsck's department
		}
		rawSizes[k] = size
		report.RawBytes += size
		// Chunk indexes are derived bookkeeping like recipes: physical
		// occupancy, but not part of the set's reassembled content.
		if !isChunkIndexKey(k) {
			report.LogicalBytes += size
		}
	}
	for logical, r := range scan.Recipes {
		if ownedPrefix(logical) == "" {
			continue
		}
		report.LogicalBytes += r.Size
	}
	report.Chunks = len(scan.Chunks)
	for _, size := range scan.Chunks {
		report.ChunkBytes += size
	}
	report.RecipeBytes = scan.RecipeBytes
	report.PhysicalBytes = report.RawBytes + report.ChunkBytes + report.RecipeBytes
	quarantined, err := st.Blobs.Quarantined()
	if err != nil {
		return nil, err
	}
	report.QuarantinedCount = len(quarantined)
	for _, q := range quarantined {
		report.QuarantinedBytes += q.Size
	}
	if report.PhysicalBytes > 0 {
		report.DedupRatioPercent = report.LogicalBytes * 100 / report.PhysicalBytes
	}

	for _, l := range layouts {
		ids, err := st.Docs.IDs(l.collection)
		if err != nil {
			return nil, err
		}
		sort.Strings(ids)
		for _, id := range ids {
			setPrefix := l.setPrefix(id)
			row := DuSet{Approach: l.name, SetID: id}
			if meta, err := loadMeta(st, l, id); err == nil {
				row.Codec = meta.Codec
			}
			for k, size := range rawSizes {
				if strings.HasPrefix(k, setPrefix) {
					if !isChunkIndexKey(k) {
						row.LogicalBytes += size
					}
					row.PhysicalBytes += size
				}
			}
			// Chunks shared between blobs of the same set still count
			// once toward the set's physical footprint.
			seen := map[string]bool{}
			for logical, r := range scan.Recipes {
				if !strings.HasPrefix(logical, setPrefix) {
					continue
				}
				row.LogicalBytes += r.Size
				for _, c := range r.Chunks {
					if !seen[c.Hash] {
						seen[c.Hash] = true
						row.PhysicalBytes += scan.Chunks[c.Hash]
					}
				}
			}
			report.Sets = append(report.Sets, row)
		}
	}
	sort.Slice(report.Sets, func(i, j int) bool {
		a, b := report.Sets[i], report.Sets[j]
		if a.Approach != b.Approach {
			return a.Approach < b.Approach
		}
		return a.SetID < b.SetID
	})
	return report, nil
}
