package core

import (
	"fmt"
	"sort"

	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// CAS fsck direction: the deduplicating chunk store adds two
// namespaces (chunks, recipes) whose mutual consistency the generic
// orphan analysis cannot see — a chunk is live not because a set
// references its key but because a live recipe lists its hash.
// casFsck checks the dedup invariants:
//
//   - every recipe belongs to a committed set (else: orphaned partial
//     write, deletable),
//   - every chunk a live recipe lists exists with the recorded size
//     (else: committed data damaged, report only),
//   - every chunk is listed by at least one surviving recipe (else:
//     orphan chunk, deletable).
//
// Chunk liveness is derived from the recipes and never persisted, so
// there is no count to check. Saves write chunks, then the recipe, and
// commit by writing set metadata last; a release deletes the recipe
// before its chunks. A crash at any prefix therefore leaves only debris
// of the kinds above — all Orphan-class, so a single Repair pass
// returns the store to Clean without touching committed data. Legacy
// cas/refs/ keys from stores written before the census are ignored.

// Fsck issue kinds of the CAS direction.
const (
	// FsckCASChunk is a chunk that is missing or unreferenced.
	FsckCASChunk = "cas-chunk"
	// FsckCASRecipe is a recipe document that is orphaned or garbled.
	FsckCASRecipe = "cas-recipe"
)

// casRepairKey indexes the side table of CAS repair actions that are
// not plain single-key deletions. Kind+key is unique per issue.
func casRepairKey(kind, key string) string { return kind + "\x00" + key }

// deadCASKey reports whether key lies in the CAS namespace but is
// neither a chunk nor a recipe — the refcounts of stores written before
// chunk liveness was derived. Nothing reads such a key, so checksum
// trouble on one is debris, never damage.
func deadCASKey(key string) bool {
	_, chunk := cas.ChunkHash(key)
	_, recipe := cas.LogicalKey(key)
	return cas.IsKey(key) && !chunk && !recipe
}

// casState is what casFsck hands the rest of Fsck.
type casState struct {
	// orphan lists cas/ blob keys classified as deletable debris, so
	// the checksum direction marks its findings on them Orphan too.
	orphan map[string]bool
	// repairs maps casRepairKey to the repair action where a plain
	// delete of the issue key is not enough.
	repairs map[string]func() error
}

// casFsck appends CAS issues to the report and returns the side state
// the checksum and repair passes need.
func casFsck(st Stores, refs *refSet, report *FsckReport) (*casState, error) {
	scan, err := cas.ScanStore(st.Blobs)
	if err != nil {
		return nil, err
	}
	cs := cas.For(st.Blobs)
	state := &casState{
		orphan:  map[string]bool{},
		repairs: map[string]func() error{},
	}
	orphanKeys, repairs := state.orphan, state.repairs

	// A recipe is orphaned when its logical key lies in an owned
	// namespace with complete reference analysis and no committed set
	// references it. Recipes under unsafe prefixes — and any outside
	// the namespaces this system owns — are treated as live.
	orphanRecipe := func(logical string) bool {
		p := ownedPrefix(logical)
		return p != "" && !refs.unsafePrefix[p] && !refs.blobs[logical]
	}

	// Garbled recipes: deletable when orphaned; otherwise committed
	// data is unreadable AND chunk reachability is unknown, so the
	// orphan-chunk analysis below must not run (it would
	// classify that recipe's chunks as garbage).
	unsafe := false
	badLogical := make([]string, 0, len(scan.BadRecipes))
	for logical := range scan.BadRecipes {
		badLogical = append(badLogical, logical)
	}
	sort.Strings(badLogical)
	for _, logical := range badLogical {
		key := cas.RecipeKey(logical)
		if orphanRecipe(logical) {
			orphanKeys[key] = true
			report.Issues = append(report.Issues, FsckIssue{
				Kind: FsckCASRecipe, Key: key,
				Problem: fmt.Sprintf("unreadable recipe not referenced by any committed set: %v", scan.BadRecipes[logical]),
				Orphan:  true,
			})
			continue
		}
		unsafe = true
		report.Issues = append(report.Issues, FsckIssue{
			Kind: FsckCASRecipe, Key: key,
			Problem: fmt.Sprintf("recipe of committed blob unreadable: %v", scan.BadRecipes[logical]),
		})
	}

	// Surviving recipes (everything not classified orphan) define chunk
	// liveness: a chunk is live while one of them lists it.
	logicals := make([]string, 0, len(scan.Recipes))
	for logical := range scan.Recipes {
		logicals = append(logicals, logical)
	}
	sort.Strings(logicals)
	live := map[string]bool{}
	missingReported := map[string]bool{}
	for _, logical := range logicals {
		if orphanRecipe(logical) {
			key := cas.RecipeKey(logical)
			orphanKeys[key] = true
			report.Issues = append(report.Issues, FsckIssue{
				Kind: FsckCASRecipe, Key: key,
				Problem: "recipe not referenced by any committed set (orphaned partial write)",
				Orphan:  true,
			})
			continue
		}
		for _, c := range scan.Recipes[logical].Chunks {
			live[c.Hash] = true
			if missingReported[c.Hash] {
				continue
			}
			size, ok := scan.Chunks[c.Hash]
			switch {
			case !ok:
				missingReported[c.Hash] = true
				problem := fmt.Sprintf("chunk missing but listed by recipe of committed blob %s", logical)
				if st.Blobs.HasQuarantined(cas.ChunkKey(c.Hash)) {
					problem = fmt.Sprintf("chunk quarantined as corrupt but listed by recipe of committed blob %s (damaged body preserved under %s; heal with scrub -repair-from)",
						logical, blobstore.QuarantineKey(cas.ChunkKey(c.Hash)))
				}
				report.Issues = append(report.Issues, FsckIssue{
					Kind: FsckCASChunk, Key: cas.ChunkKey(c.Hash),
					Problem: problem,
				})
			case size != c.Size:
				// A stored size below the logical one is what compressed
				// chunk bodies legitimately look like; only a body that no
				// longer decodes to its content address is damage.
				if err := cs.VerifyChunk(c.Hash, c.Size); err != nil {
					missingReported[c.Hash] = true
					report.Issues = append(report.Issues, FsckIssue{
						Kind: FsckCASChunk, Key: cas.ChunkKey(c.Hash),
						Problem: fmt.Sprintf("chunk does not yield the %d bytes the recipe of %s records: %v", c.Size, logical, err),
					})
				}
			}
		}
	}
	// Quarantine listing: the scrubber moves corrupt bodies aside rather
	// than deleting them, so fsck must account for the namespace. A
	// quarantined chunk that surviving recipes still reference was
	// already reported above (the missing-chunk branch names the
	// quarantined copy); everything else in quarantine is either debris
	// of an uncommitted save or a referenced raw blob gone bad.
	quarantined, err := st.Blobs.Quarantined()
	if err != nil {
		return nil, err
	}
	for _, entry := range quarantined {
		orig := entry.Key
		issueKey := blobstore.QuarantineKey(orig)
		h, isHash := cas.ChunkHash(orig)
		isChunk := isHash && orig == cas.ChunkKey(h)
		switch {
		case unsafe:
			// Reachability is unknown (unreadable committed recipes), so
			// nothing in quarantine may be classified deletable.
			report.Issues = append(report.Issues, FsckIssue{
				Kind: FsckQuarantine, Key: issueKey,
				Problem: "quarantined corrupt data; reachability unknown (unreadable recipes), preserved",
			})
		case isChunk && live[h]:
			// Damage already reported by the missing-chunk branch.
		case isChunk:
			report.Issues = append(report.Issues, FsckIssue{
				Kind: FsckQuarantine, Key: issueKey,
				Problem: "quarantined chunk not referenced by any recipe (deletable debris)",
				Orphan:  true,
			})
			repairs[casRepairKey(FsckQuarantine, issueKey)] = func() error {
				return st.Blobs.DeleteQuarantined(orig)
			}
		default:
			p := ownedPrefix(orig)
			if p != "" && !refs.unsafePrefix[p] && !refs.blobs[orig] {
				report.Issues = append(report.Issues, FsckIssue{
					Kind: FsckQuarantine, Key: issueKey,
					Problem: "quarantined blob not referenced by any committed set (deletable debris)",
					Orphan:  true,
				})
				repairs[casRepairKey(FsckQuarantine, issueKey)] = func() error {
					return st.Blobs.DeleteQuarantined(orig)
				}
				continue
			}
			report.Issues = append(report.Issues, FsckIssue{
				Kind: FsckQuarantine, Key: issueKey,
				Problem: "blob quarantined as corrupt; damaged bytes preserved (re-save or repair to heal)",
			})
		}
	}

	if unsafe {
		return state, nil
	}

	// Orphan chunks: no surviving recipe lists them, so deleting one can
	// never lose committed data.
	hashes := make([]string, 0, len(scan.Chunks))
	for h := range scan.Chunks {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		if live[h] {
			continue
		}
		key := cas.ChunkKey(h)
		orphanKeys[key] = true
		report.Issues = append(report.Issues, FsckIssue{
			Kind: FsckCASChunk, Key: key,
			Problem: "chunk not referenced by any recipe (orphaned partial write)",
			Orphan:  true,
		})
	}
	return state, nil
}
