package core

import (
	"fmt"
	"sort"

	"github.com/mmm-go/mmm/internal/storage/blobstore"
	"github.com/mmm-go/mmm/internal/storage/cas"
)

// CAS fsck direction: the deduplicating chunk store adds three
// namespaces (chunks, refcounts, recipes) whose mutual consistency the
// generic orphan analysis cannot see — a chunk is live not because a
// set references its key but because a live recipe lists its hash.
// casFsck checks the dedup invariants:
//
//   - every recipe belongs to a committed set (else: orphaned partial
//     write, deletable),
//   - every chunk a live recipe lists exists with the recorded size
//     (else: committed data damaged, report only),
//   - every chunk is listed by at least one surviving recipe (else:
//     orphan chunk, deletable together with its refcount),
//   - every persisted refcount equals the number of surviving recipes
//     listing the chunk (else: metadata drift, rewritable),
//   - no refcount exists for a chunk that is gone (else: bookkeeping
//     debris, deletable).
//
// Saves increment refcounts after writing the recipe and commit by
// writing set metadata last; Release deletes the recipe before
// decrementing. A crash at any prefix therefore leaves stored
// refcounts >= surviving-recipe references and only debris of the
// kinds above — all Orphan-class, so a single Repair pass returns the
// store to Clean without touching committed data.

// Fsck issue kinds of the CAS direction.
const (
	// FsckCASChunk is a chunk that is missing or unreferenced.
	FsckCASChunk = "cas-chunk"
	// FsckCASRecipe is a recipe document that is orphaned or garbled.
	FsckCASRecipe = "cas-recipe"
	// FsckCASRefcount is a persisted refcount that disagrees with the
	// surviving recipes (or outlived its chunk).
	FsckCASRefcount = "cas-refcount"
)

// casRepairKey indexes the side table of CAS repair actions that are
// not plain single-key deletions. Kind+key is unique per issue.
func casRepairKey(kind, key string) string { return kind + "\x00" + key }

// casState is what casFsck hands the rest of Fsck.
type casState struct {
	// orphan lists cas/ blob keys classified as deletable debris, so
	// the checksum direction marks its findings on them Orphan too.
	orphan map[string]bool
	// repairs maps casRepairKey to the repair action where a plain
	// delete of the issue key is not enough.
	repairs map[string]func() error
	// refRewrite maps the ref key of every surviving chunk to a repair
	// that rewrites its refcount from the surviving recipes. Integrity
	// findings on those keys (a crash between a refcount write and its
	// manifest) are repairable drift, never damage — a refcount is
	// derivable metadata, not primary data.
	refRewrite map[string]func() error
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
		orphan:     map[string]bool{},
		repairs:    map[string]func() error{},
		refRewrite: map[string]func() error{},
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
	// orphan-chunk/refcount analysis below must not run (it would
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
	// liveness: liveCount is the number of surviving recipes listing a
	// chunk, which is exactly what each persisted refcount must equal —
	// saves increment once per distinct chunk per recipe.
	logicals := make([]string, 0, len(scan.Recipes))
	for logical := range scan.Recipes {
		logicals = append(logicals, logical)
	}
	sort.Strings(logicals)
	liveCount := map[string]int{}
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
		seen := map[string]bool{}
		for _, c := range scan.Recipes[logical].Chunks {
			if !seen[c.Hash] {
				seen[c.Hash] = true
				liveCount[c.Hash]++
			}
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
		case isChunk && liveCount[h] > 0:
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

	// Orphan chunks: no surviving recipe lists them. Deleting one
	// (together with its refcount) can never lose committed data.
	hashes := make([]string, 0, len(scan.Chunks))
	for h := range scan.Chunks {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	for _, h := range hashes {
		if liveCount[h] > 0 {
			continue
		}
		chunkKey, refKey := cas.ChunkKey(h), cas.RefKey(h)
		orphanKeys[chunkKey] = true
		orphanKeys[refKey] = true
		report.Issues = append(report.Issues, FsckIssue{
			Kind: FsckCASChunk, Key: chunkKey,
			Problem: "chunk not referenced by any recipe (orphaned partial write)",
			Orphan:  true,
		})
		repairs[casRepairKey(FsckCASChunk, chunkKey)] = func() error {
			if err := st.Blobs.Delete(chunkKey); err != nil {
				return err
			}
			return st.Blobs.Delete(refKey)
		}
	}

	// Refcount drift on surviving chunks: a crash between recipe and
	// refcount writes (or between recipe deletion and decrements)
	// leaves counts above the recipe references; rewrite to the
	// recomputed value. Garbled and missing ref files repair the same
	// way.
	liveHashes := make([]string, 0, len(liveCount))
	for h := range liveCount {
		liveHashes = append(liveHashes, h)
	}
	sort.Strings(liveHashes)
	for _, h := range liveHashes {
		if _, ok := scan.Chunks[h]; !ok {
			continue // chunk missing: damage reported above, nothing to rewrite
		}
		want := liveCount[h]
		refKey := cas.RefKey(h)
		rewrite := func() error {
			return st.Blobs.Put(refKey, cas.EncodeRefcount(want))
		}
		state.refRewrite[refKey] = rewrite
		stored, hasRef := scan.Refs[h]
		badErr, bad := scan.BadRefs[h]
		if hasRef && !bad && stored == want {
			continue
		}
		problem := fmt.Sprintf("refcount is %d, surviving recipes imply %d", stored, want)
		if bad {
			problem = fmt.Sprintf("refcount unreadable (%v), surviving recipes imply %d", badErr, want)
		} else if !hasRef {
			problem = fmt.Sprintf("refcount missing, surviving recipes imply %d", want)
		}
		report.Issues = append(report.Issues, FsckIssue{
			Kind: FsckCASRefcount, Key: refKey, Problem: problem, Orphan: true,
		})
		repairs[casRepairKey(FsckCASRefcount, refKey)] = rewrite
	}

	// Dangling refcounts: the chunk is gone and nothing references it
	// (GC deletes the chunk before its refcount, so a crash between the
	// two strands the ref). Plain deletion of the issue key suffices.
	dangling := make([]string, 0)
	for h := range scan.Refs {
		dangling = append(dangling, h)
	}
	for h := range scan.BadRefs {
		dangling = append(dangling, h)
	}
	sort.Strings(dangling)
	for _, h := range dangling {
		if _, ok := scan.Chunks[h]; ok {
			continue
		}
		if liveCount[h] > 0 {
			continue // chunk missing under live references: damage, keep the ref
		}
		refKey := cas.RefKey(h)
		if orphanKeys[refKey] {
			continue
		}
		orphanKeys[refKey] = true
		report.Issues = append(report.Issues, FsckIssue{
			Kind: FsckCASRefcount, Key: refKey,
			Problem: "refcount for nonexistent chunk (bookkeeping debris)",
			Orphan:  true,
		})
	}
	return state, nil
}
