package core

import (
	"archive/tar"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/mmm-go/mmm/internal/dataset"
)

// Archive transfer: sets are saved "for analytical and archival
// purposes", and archives eventually move — offsite backup, handover
// to an analysis team, migration between stores. Export writes one
// set's complete recovery chain (metadata documents, binary artifacts,
// and — for Provenance — the referenced dataset specs) into a single
// tar stream; Import restores it into any stores.
//
// Entry layout inside the archive:
//
//	docs/<collection>/<id>.json    document-store entries (raw JSON)
//	blobs/<key>                    blob-store entries
//	datasets/<id>.json             dataset specs referenced by the chain
//
// Exported archives are self-contained for their approach: importing
// into empty stores makes the exported set recoverable there.

// Exporter is implemented by approaches that can export a set's chain.
type Exporter interface {
	// Export writes the archive of setID's full recovery chain to w.
	Export(setID string, w io.Writer) error
}

// Export implements Exporter: the artifacts of every element of setID's
// recovery chain, written to w as tar. Blobs are enumerated by prefix
// so deduplicated sets export too, and read through the CAS layer:
// archives carry reassembled logical bytes and stay importable into
// any store, dedup or not. Layouts that reference external datasets
// additionally carry the specs the chain's recovery needs.
func (b *approachBase) Export(setID string, w io.Writer) error {
	chain, err := b.Lineage(setID)
	if err != nil {
		return err
	}
	st, l := b.stores, b.layout
	tw := tar.NewWriter(w)
	writeEntry := func(name string, data []byte) error {
		hdr := &tar.Header{
			Name: name, Mode: 0o644, Size: int64(len(data)),
			ModTime: time.Unix(0, 0), // deterministic archives
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}

	seenDatasets := map[string]bool{}
	for _, meta := range chain {
		for _, d := range l.artifacts(l, meta.SetID, &meta).docs {
			var raw json.RawMessage
			if err := st.Docs.Get(d.collection, d.id, &raw); err != nil {
				return fmt.Errorf("core: exporting %s/%s: %w", d.collection, d.id, err)
			}
			if err := writeEntry("docs/"+d.collection+"/"+d.id+".json", raw); err != nil {
				return err
			}
		}
		keys, err := b.blobs.Keys(l.setPrefix(meta.SetID))
		if err != nil {
			return err
		}
		for _, k := range keys {
			data, err := b.getBlob(k)
			if err != nil {
				return fmt.Errorf("core: exporting blob %s: %w", k, err)
			}
			if err := writeEntry("blobs/"+k, data); err != nil {
				return err
			}
		}
		if l.datasetIDs == nil {
			continue
		}
		ids, err := l.datasetIDs(st, meta)
		if err != nil {
			return err
		}
		for _, id := range ids {
			if seenDatasets[id] {
				continue
			}
			seenDatasets[id] = true
			spec, err := st.Datasets.Spec(id)
			if err != nil {
				return fmt.Errorf("core: exporting dataset %s: %w", id, err)
			}
			raw, err := json.Marshal(spec)
			if err != nil {
				return err
			}
			if err := writeEntry("datasets/"+id+".json", raw); err != nil {
				return err
			}
		}
	}
	return tw.Close()
}

// ImportArchive restores an exported archive into st. Existing entries
// with the same keys are overwritten; the imported set IDs keep their
// original names, so import into stores that already contain different
// sets under the same IDs is rejected.
func ImportArchive(st Stores, r io.Reader) error {
	tr := tar.NewReader(r)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("core: reading archive: %w", err)
		}
		data, err := io.ReadAll(io.LimitReader(tr, 1<<31))
		if err != nil {
			return fmt.Errorf("core: reading archive entry %s: %w", hdr.Name, err)
		}
		switch {
		case strings.HasPrefix(hdr.Name, "docs/"):
			rest := strings.TrimPrefix(hdr.Name, "docs/")
			slash := strings.IndexByte(rest, '/')
			if slash < 0 || !strings.HasSuffix(rest, ".json") {
				return fmt.Errorf("core: malformed archive entry %q", hdr.Name)
			}
			collection := rest[:slash]
			id := strings.TrimSuffix(rest[slash+1:], ".json")
			if exists, err := st.Docs.Exists(collection, id); err == nil && exists {
				var current json.RawMessage
				if err := st.Docs.Get(collection, id, &current); err == nil && string(current) != string(data) {
					return fmt.Errorf("core: import conflict: %s/%s already exists with different content", collection, id)
				}
			}
			if err := st.Docs.Insert(collection, id, json.RawMessage(data)); err != nil {
				return fmt.Errorf("core: importing %s: %w", hdr.Name, err)
			}
		case strings.HasPrefix(hdr.Name, "blobs/"):
			key := strings.TrimPrefix(hdr.Name, "blobs/")
			if err := st.Blobs.Put(key, data); err != nil {
				return fmt.Errorf("core: importing %s: %w", hdr.Name, err)
			}
		case strings.HasPrefix(hdr.Name, "datasets/"):
			var spec dataset.Spec
			if err := json.Unmarshal(data, &spec); err != nil {
				return fmt.Errorf("core: importing %s: %w", hdr.Name, err)
			}
			if _, err := st.Datasets.Put(spec); err != nil {
				return fmt.Errorf("core: importing %s: %w", hdr.Name, err)
			}
		default:
			return fmt.Errorf("core: unknown archive entry %q", hdr.Name)
		}
	}
}
