package core

import (
	"errors"
	"fmt"
	"sort"
)

// Store-wide fsck: where VerifyStore asks "does every committed set
// have its artifacts?", Fsck additionally asks the converse — "does
// every artifact belong to a committed set?" — and verifies every blob
// against its recorded checksums. The two directions together give the
// store's durability invariant: metadata present ⇔ all referenced
// artifacts present and intact, and nothing else in the namespaces.
//
// Unreferenced artifacts are the residue of a crash mid-save: saves
// write blobs and auxiliary documents first and commit by writing the
// set metadata document last, so a crash leaves artifacts without
// metadata, never the reverse. Those orphans are invisible to every
// read path and safe to delete; Repair does so. Corrupt-but-referenced
// blobs are the opposite case — real data gone bad — and are only ever
// reported.

// Fsck issue kinds.
const (
	// FsckChecksum is a blob whose bytes fail checksum verification.
	FsckChecksum = "checksum"
	// FsckManifest is a checksum manifest entry without its blob.
	FsckManifest = "manifest"
	// FsckUnchecksummed is a blob with no recorded checksums.
	FsckUnchecksummed = "unchecksummed"
	// FsckOrphanBlob is a blob no committed set references.
	FsckOrphanBlob = "orphan-blob"
	// FsckOrphanDoc is a document no committed set references.
	FsckOrphanDoc = "orphan-doc"
	// FsckSet is a committed set with missing or inconsistent artifacts.
	FsckSet = "set"
	// FsckQuarantine is a corrupt body the scrubber moved aside. Entries
	// whose original is unreferenced are deletable debris; referenced
	// ones are preserved evidence of damage.
	FsckQuarantine = "quarantine"
)

// FsckIssue is one problem found by Fsck.
type FsckIssue struct {
	// Kind classifies the issue (the Fsck* constants).
	Kind string `json:"kind"`
	// Key is the blob key the issue concerns, if any.
	Key string `json:"key,omitempty"`
	// Collection and DocID name the document the issue concerns, if any.
	Collection string `json:"collection,omitempty"`
	DocID      string `json:"doc_id,omitempty"`
	// SetID is the committed set the issue concerns, if any.
	SetID string `json:"set_id,omitempty"`
	// Problem describes the issue.
	Problem string `json:"problem"`
	// Orphan marks debris of an uncommitted save: invisible to reads and
	// safe to delete. Issues with Orphan false are never auto-repaired.
	Orphan bool `json:"orphan,omitempty"`
	// Repaired reports that this run deleted the orphan.
	Repaired bool `json:"repaired,omitempty"`
	// RepairError records why this run failed to delete the orphan.
	RepairError string `json:"repair_error,omitempty"`
}

func (i FsckIssue) String() string {
	loc := i.Key
	if loc == "" && i.Collection != "" {
		loc = i.Collection + "/" + i.DocID
	}
	if loc == "" {
		loc = i.SetID
	}
	s := fmt.Sprintf("[%s] %s: %s", i.Kind, loc, i.Problem)
	if i.Repaired {
		s += " (repaired)"
	}
	if i.RepairError != "" {
		s += " (repair failed: " + i.RepairError + ")"
	}
	return s
}

// FsckOptions configures a Fsck run.
type FsckOptions struct {
	// Repair deletes orphaned partial writes (and dangling manifest
	// entries). Corrupt or missing referenced artifacts are never
	// touched.
	Repair bool
}

// FsckReport is the result of a Fsck run.
type FsckReport struct {
	// Sets is the number of committed sets seen across all approaches.
	Sets int `json:"sets"`
	// BytesVerified counts blob bytes read for checksum verification.
	BytesVerified int64 `json:"bytes_verified"`
	// Issues lists everything found, in deterministic order.
	Issues []FsckIssue `json:"issues,omitempty"`
}

// Clean reports whether the store has no issues at all.
func (r *FsckReport) Clean() bool { return len(r.Issues) == 0 }

// Damaged reports whether any issue concerns committed data (anything
// beyond deletable orphans).
func (r *FsckReport) Damaged() bool { return r.DamagedCount() > 0 }

// DamagedCount counts the issues that concern committed data.
func (r *FsckReport) DamagedCount() int {
	n := 0
	for _, i := range r.Issues {
		if !i.Orphan {
			n++
		}
	}
	return n
}

// refSet is the closure of artifacts committed sets reference.
type refSet struct {
	blobs map[string]bool    // blob keys
	docs  map[[2]string]bool // (collection, id)
	// unsafePrefix marks approach blob namespaces where reference
	// analysis is incomplete (unreadable set metadata): orphan
	// classification there would risk deleting live data.
	unsafePrefix map[string]bool
	// unsafeCols marks document collections with the same problem: the
	// per-set auxiliary documents cannot be enumerated without the set
	// metadata, so nothing in these collections may be classified as an
	// orphan.
	unsafeCols map[string]bool
}

func newRefSet() *refSet {
	return &refSet{
		blobs:        map[string]bool{},
		docs:         map[[2]string]bool{},
		unsafePrefix: map[string]bool{},
		unsafeCols:   map[string]bool{},
	}
}

// references computes every artifact the committed sets of all
// approaches reference, straight from their layouts. sets is the
// number of committed sets seen.
func references(st Stores) (refs *refSet, sets int, err error) {
	refs = newRefSet()
	for _, l := range layouts {
		ids, err := st.Docs.IDs(l.collection)
		if err != nil {
			return nil, 0, err
		}
		for _, id := range ids {
			sets++
			arts, err := l.artifactsOf(st, id)
			if err != nil {
				// Which blobs the set references is unknown; arts names
				// the documents to shield. A reference to an artifact
				// that turns out not to exist only suppresses orphan
				// classification.
				refs.unsafePrefix[l.blobPrefix] = true
			}
			for _, d := range arts.docs {
				refs.docs[[2]string{d.collection, d.id}] = true
			}
			for _, b := range arts.blobs {
				refs.blobs[b.key] = true
			}
			for _, c := range arts.unsafeCols {
				refs.unsafeCols[c] = true
			}
		}
	}
	return refs, sets, nil
}

// Fsck checks the whole store: per-blob checksums, set completeness for
// every approach, and the absence of orphaned partial writes. With
// opts.Repair, orphans are deleted; everything else is only reported.
// When repairs fail the full report is still returned alongside the
// aggregate error, with each failure recorded on its issue.
func Fsck(st Stores, opts FsckOptions) (*FsckReport, error) {
	report := &FsckReport{}
	refs, sets, err := references(st)
	if err != nil {
		return nil, err
	}
	report.Sets = sets

	// Direction 1: every committed set's artifacts present and
	// consistent. VerifyStore also covers Update/Provenance base chains.
	for _, l := range layouts {
		a, err := Open(l.name, st)
		if err != nil {
			return nil, err
		}
		issues, err := a.(Verifier).VerifyStore()
		if err != nil {
			return nil, err
		}
		for _, i := range issues {
			report.Issues = append(report.Issues, FsckIssue{
				Kind: FsckSet, SetID: i.SetID, Problem: i.Problem,
			})
		}
	}

	// CAS direction: recipe/chunk consistency. Runs before the
	// checksum direction so debris it identifies (orphan chunks, stale
	// recipes) also classifies checksum findings on those keys as
	// orphans.
	casInfo, err := casFsck(st, refs, report)
	if err != nil {
		return nil, err
	}
	casRepairs := casInfo.repairs

	// Direction 2a: blob bytes match their recorded checksums.
	integrity, bytesRead, err := st.Blobs.Integrity()
	if err != nil {
		return nil, err
	}
	report.BytesVerified = bytesRead
	flagged := map[string]bool{}
	for _, i := range integrity {
		flagged[i.Key] = true
		prefix := ownedPrefix(i.Key)
		orphanable := (prefix != "" && !refs.unsafePrefix[prefix] && !refs.blobs[i.Key]) || casInfo.orphan[i.Key] || deadCASKey(i.Key)
		var kind string
		switch {
		case i.Mismatch:
			kind = FsckChecksum
		case i.Dangling:
			// A manifest entry without its blob is pure bookkeeping
			// debris regardless of references; deleting it never loses
			// data.
			kind = FsckManifest
			orphanable = true
		default:
			kind = FsckUnchecksummed
		}
		report.Issues = append(report.Issues, FsckIssue{
			Kind: kind, Key: i.Key, Problem: i.Problem, Orphan: orphanable,
		})
	}

	// Direction 2b: no unreferenced blobs in owned namespaces.
	keys, err := st.Blobs.Keys()
	if err != nil {
		return nil, err
	}
	for _, key := range keys {
		prefix := ownedPrefix(key)
		if prefix == "" || refs.blobs[key] || flagged[key] || refs.unsafePrefix[prefix] {
			continue
		}
		report.Issues = append(report.Issues, FsckIssue{
			Kind: FsckOrphanBlob, Key: key,
			Problem: "blob not referenced by any committed set (orphaned partial write)",
			Orphan:  true,
		})
	}

	// Direction 2c: no unreferenced documents in owned collections.
	var owned []string
	for _, l := range layouts {
		owned = append(append(owned, l.collection), l.aux...)
	}
	for _, col := range owned {
		if refs.unsafeCols[col] {
			continue
		}
		ids, err := st.Docs.IDs(col)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			if refs.docs[[2]string{col, id}] {
				continue
			}
			report.Issues = append(report.Issues, FsckIssue{
				Kind: FsckOrphanDoc, Collection: col, DocID: id,
				Problem: "document not referenced by any committed set (orphaned partial write)",
				Orphan:  true,
			})
		}
	}

	sort.SliceStable(report.Issues, func(a, b int) bool {
		ia, ib := report.Issues[a], report.Issues[b]
		if ia.Kind != ib.Kind {
			return ia.Kind < ib.Kind
		}
		if ia.Key != ib.Key {
			return ia.Key < ib.Key
		}
		if ia.Collection != ib.Collection {
			return ia.Collection < ib.Collection
		}
		return ia.DocID+ia.SetID < ib.DocID+ib.SetID
	})

	if opts.Repair {
		// One failed deletion must not abandon the rest of the repairs
		// (or the report): record it on the issue, keep going, and hand
		// the caller the full report next to the aggregate error.
		var repairErrs []error
		for k := range report.Issues {
			issue := &report.Issues[k]
			if !issue.Orphan {
				continue
			}
			var err error
			switch {
			case casRepairs[casRepairKey(issue.Kind, issue.Key)] != nil:
				if err = casRepairs[casRepairKey(issue.Kind, issue.Key)](); err != nil {
					err = fmt.Errorf("core: fsck repair of %q: %w", issue.Key, err)
				}
			case issue.Key != "":
				// Blobs.Delete removes the blob and its manifest entry;
				// for dangling manifests the blob half is a no-op.
				if err = st.Blobs.Delete(issue.Key); err != nil {
					err = fmt.Errorf("core: fsck repair of blob %q: %w", issue.Key, err)
				}
			case issue.Collection != "":
				if err = st.Docs.Delete(issue.Collection, issue.DocID); err != nil {
					err = fmt.Errorf("core: fsck repair of %s/%s: %w", issue.Collection, issue.DocID, err)
				}
			}
			if err != nil {
				issue.RepairError = err.Error()
				repairErrs = append(repairErrs, err)
				continue
			}
			issue.Repaired = true
		}
		if len(repairErrs) > 0 {
			return report, errors.Join(repairErrs...)
		}
	}
	return report, nil
}
