package core

import (
	"fmt"
	"sort"
	"strings"
)

// Set layouts: the paper's contribution is a four-row table — which
// artifacts (metadata document, architecture, parameter or diff blob,
// hash and provenance documents) each approach writes per set. This
// file is that table. Every operation that walks a set's artifacts
// without interpreting them — SetIDs, Lineage, Prune, Export,
// PullSource, the existence half of VerifyStore, Fsck's reference
// closure and owned namespaces, Du's per-set rows — and the approach
// registry (ApproachNames, Open) derive from it. Only an approach's
// own save/recover code names its collections and blob files beyond
// this file.

// Document collections and blob namespaces.
const (
	baselineCollection = "baseline_sets"
	baselineBlobPrefix = "baseline"

	mmlibSetCollection  = "mmlib_sets"
	mmlibMetaCollection = "mmlib_meta"
	mmlibEnvCollection  = "mmlib_env"
	mmlibCodeCollection = "mmlib_code"
	mmlibBlobPrefix     = "mmlib"

	provenanceCollection       = "provenance_sets"
	provenanceTrainCollection  = "provenance_train"
	provenanceUpdateCollection = "provenance_updates"
	provenanceBlobPrefix       = "provenance"

	updateCollection     = "update_sets"
	updateHashCollection = "update_hashes"
	updateDiffCollection = "update_diffs"
	updateBlobPrefix     = "update"
)

// Blob file names under <blobPrefix>/<setID>/ (MMlibBase nests them
// one level deeper, under the model index).
const (
	archFile   = "arch.json"
	paramsFile = "params.bin"
	diffFile   = "diff.bin"
	hashFile   = "hashes.bin"
)

// layout declares where one approach keeps its sets.
type layout struct {
	// name is the registry name (CLI flag, URL path segment, Du row).
	name string
	// label is the evaluation label: Approach.Name and the approach
	// field of the set metadata document.
	label string
	// collection holds one metadata document per set, keyed by set ID.
	// It is the commit record: a set exists iff its document does.
	collection string
	// aux lists the other document collections the approach owns.
	aux []string
	// blobPrefix is the approach's blob namespace; a set's blobs live
	// under <blobPrefix>/<setID>/.
	blobPrefix string
	// idPrefix starts the approach's sequential set IDs.
	idPrefix string
	// chained marks approaches whose derived sets recover through a
	// base set.
	chained bool
	// artifacts lists what the committed set id references. A nil meta
	// means the metadata document is unreadable: the result then names
	// what must be shielded from orphan classification instead.
	artifacts func(l *layout, id string, meta *setMeta) setArtifacts
	// datasetIDs lists the external datasets a set references, for
	// approaches that reference any (nil otherwise).
	datasetIDs func(st Stores, meta setMeta) ([]string, error)
}

// docRef names one document a set references; what labels it in
// verification issues.
type docRef struct{ collection, id, what string }

// blobRef names one logical blob a set references. Optional blobs may
// legitimately be absent.
type blobRef struct {
	key, what string
	optional  bool
}

// setArtifacts is everything one committed set references.
type setArtifacts struct {
	// docs lists the set's documents, commit record first.
	docs  []docRef
	blobs []blobRef
	// unsafeCols lists collections whose per-set documents cannot be
	// enumerated because the metadata is unreadable: nothing in them
	// may be classified as an orphan, and the set cannot be pruned.
	unsafeCols []string
}

// artifactsOf lists what the committed set id references. When its
// metadata is unreadable, the shield list comes back together with
// the load error.
func (l *layout) artifactsOf(st Stores, id string) (setArtifacts, error) {
	meta, err := loadMeta(st, l, id)
	if err != nil {
		return l.artifacts(l, id, nil), err
	}
	return l.artifacts(l, id, &meta), nil
}

// derived reports whether meta recovers through a base set.
func (l *layout) derived(meta setMeta) bool { return l.chained && meta.Kind != "full" }

// blobKey is the key of a set-level blob file.
func (l *layout) blobKey(setID, file string) string {
	return l.blobPrefix + "/" + setID + "/" + file
}

// setPrefix is the key prefix of all of one set's blobs.
func (l *layout) setPrefix(setID string) string { return l.blobKey(setID, "") }

// fullBlobs lists the blobs of a fullSave: one architecture blob, one
// concatenated parameter blob, and — for dedup saves only — the
// parameter blob's chunk index.
func (l *layout) fullBlobs(id string) []blobRef {
	return []blobRef{
		{key: l.blobKey(id, archFile), what: "architecture blob"},
		{key: l.blobKey(id, paramsFile), what: "parameter blob"},
		{key: l.blobKey(id, chunkIndexFile), what: "chunk index", optional: true},
	}
}

// setDocs lists the commit record plus one document per given
// collection, all keyed by the set ID.
func (l *layout) setDocs(id string, cols ...docRef) setArtifacts {
	arts := setArtifacts{docs: []docRef{{l.collection, id, "metadata"}}}
	for _, c := range cols {
		arts.docs = append(arts.docs, docRef{c.collection, id, c.what})
	}
	return arts
}

// The table itself, one row per approach.
var (
	baselineLayout = &layout{
		name: "baseline", label: "Baseline",
		collection: baselineCollection, blobPrefix: baselineBlobPrefix, idPrefix: "bl",
		artifacts: baselineArtifacts,
	}
	mmlibLayout = &layout{
		name: "mmlib", label: "MMlib-base",
		collection: mmlibSetCollection, blobPrefix: mmlibBlobPrefix, idPrefix: "ml",
		aux:       []string{mmlibMetaCollection, mmlibEnvCollection, mmlibCodeCollection},
		artifacts: mmlibArtifacts,
	}
	provenanceLayout = &layout{
		name: "provenance", label: "Provenance",
		collection: provenanceCollection, blobPrefix: provenanceBlobPrefix, idPrefix: "pv",
		aux:       []string{provenanceTrainCollection, provenanceUpdateCollection},
		chained:   true,
		artifacts: provenanceArtifacts, datasetIDs: provenanceDatasetIDs,
	}
	updateLayout = &layout{
		name: "update", label: "Update",
		collection: updateCollection, blobPrefix: updateBlobPrefix, idPrefix: "up",
		aux:       []string{updateHashCollection, updateDiffCollection},
		chained:   true,
		artifacts: updateArtifacts,
	}
)

// layouts lists every approach's layout in registry-name order.
var layouts = []*layout{baselineLayout, mmlibLayout, provenanceLayout, updateLayout}

// baselineArtifacts: every set is a full snapshot, whatever the
// metadata says.
func baselineArtifacts(l *layout, id string, _ *setMeta) setArtifacts {
	arts := l.setDocs(id)
	arts.blobs = l.fullBlobs(id)
	return arts
}

// mmlibArtifacts: three documents and two blobs per model. The
// per-model IDs need meta.NumModels; without it none of the auxiliary
// collections can be enumerated.
func mmlibArtifacts(l *layout, id string, meta *setMeta) setArtifacts {
	arts := l.setDocs(id)
	if meta == nil {
		arts.unsafeCols = l.aux
		return arts
	}
	for i := 0; i < meta.NumModels; i++ {
		modelID := mmlibModelID(id, i)
		for _, c := range l.aux {
			arts.docs = append(arts.docs, docRef{c, modelID,
				fmt.Sprintf("model %d: document %s/%s", i, c, modelID)})
		}
		for _, file := range []string{archFile, paramsFile} {
			arts.blobs = append(arts.blobs, blobRef{
				key:  mmlibBlobKey(id, i, file),
				what: fmt.Sprintf("model %d: blob %s", i, file)})
		}
	}
	return arts
}

// provenanceArtifacts: full snapshots for initial sets; training info
// and update records for derived ones. With the kind unknown both
// documents are shielded (their ID is the set ID).
func provenanceArtifacts(l *layout, id string, meta *setMeta) setArtifacts {
	if meta != nil && meta.Kind == "full" {
		arts := l.setDocs(id)
		arts.blobs = l.fullBlobs(id)
		return arts
	}
	return l.setDocs(id,
		docRef{collection: provenanceTrainCollection, what: "training info"},
		docRef{collection: provenanceUpdateCollection, what: "update records"})
}

// provenanceDatasetIDs lists the datasets a derived set's update
// records reference, sorted.
func provenanceDatasetIDs(st Stores, meta setMeta) ([]string, error) {
	if meta.Kind == "full" {
		return nil, nil
	}
	var updates updatesDoc
	if err := st.Docs.Get(provenanceUpdateCollection, meta.SetID, &updates); err != nil {
		return nil, fmt.Errorf("core: reading update records of %s: %w", meta.SetID, err)
	}
	seen := map[string]bool{}
	var ids []string
	for _, u := range updates.Updates {
		if !seen[u.DatasetID] {
			seen[u.DatasetID] = true
			ids = append(ids, u.DatasetID)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// updateArtifacts: hash info always — the hash table blob, or the hash
// document of sets saved before the table existed (the metadata says
// which); full blobs for initial sets, a diff document and diff blob
// for derived ones. With the metadata unreadable both documents are
// shielded.
func updateArtifacts(l *layout, id string, meta *setMeta) setArtifacts {
	hashes := docRef{updateHashCollection, id, "hash document"}
	diffs := docRef{updateDiffCollection, id, "diff document"}
	arts := l.setDocs(id)
	switch {
	case meta == nil:
		arts.docs = append(arts.docs, hashes, diffs)
		return arts
	case meta.HashTable:
		arts.blobs = []blobRef{{key: l.blobKey(id, hashFile), what: "hash table"}}
	default:
		arts.docs = append(arts.docs, hashes)
	}
	if meta.Kind == "full" {
		arts.blobs = append(arts.blobs, l.fullBlobs(id)...)
	} else {
		arts.docs = append(arts.docs, diffs)
		arts.blobs = append(arts.blobs, blobRef{key: l.blobKey(id, diffFile), what: "diff blob"})
	}
	return arts
}

// mmlibModelID is the document ID of model i's per-model documents.
func mmlibModelID(setID string, i int) string { return fmt.Sprintf("%s-m%05d", setID, i) }

// mmlibBlobKey is the key of one of model i's blob files.
func mmlibBlobKey(setID string, i int, file string) string {
	return fmt.Sprintf("%s/%s/%d/%s", mmlibBlobPrefix, setID, i, file)
}

// ownedPrefix returns the approach blob namespace key belongs to, or "".
func ownedPrefix(key string) string {
	for _, l := range layouts {
		if strings.HasPrefix(key, l.blobPrefix+"/") {
			return l.blobPrefix
		}
	}
	return ""
}

// ApproachNames lists the names Open accepts, sorted.
func ApproachNames() []string {
	names := make([]string, len(layouts))
	for i, l := range layouts {
		names[i] = l.name
	}
	return names
}

// Open constructs the approach registered under name (one of
// ApproachNames) over stores.
func Open(name string, stores Stores, opts ...Option) (Approach, error) {
	switch name {
	case baselineLayout.name:
		return NewBaseline(stores, opts...), nil
	case mmlibLayout.name:
		return NewMMlibBase(stores, opts...), nil
	case provenanceLayout.name:
		return NewProvenance(stores, opts...), nil
	case updateLayout.name:
		return NewUpdate(stores, opts...), nil
	}
	return nil, fmt.Errorf("core: unknown approach %q (want %s)", name, strings.Join(ApproachNames(), ", "))
}
