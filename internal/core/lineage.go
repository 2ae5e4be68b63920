package core

import "fmt"

// SetInfo is a saved set's metadata document, as stored and as
// exposed.
type SetInfo struct {
	SetID      string `json:"set_id"`
	Approach   string `json:"approach"`
	Kind       string `json:"kind"` // "full" or "derived"
	Base       string `json:"base,omitempty"`
	Depth      int    `json:"depth"` // recovery-chain length; 0 for full saves
	ArchName   string `json:"arch_name"`
	NumModels  int    `json:"num_models"`
	ParamCount int    `json:"param_count"`
	// Codec is the compression codec ID the set was saved with (""
	// for none, including every pre-codec set). Recovery never needs
	// it — encoded artifacts are self-describing — but du, inspect,
	// and the server surface it.
	Codec string `json:"codec,omitempty"`
	// HashTable marks an Update set whose hash info is the hashes.bin
	// table blob. Absent on every other approach's sets and on Update
	// sets saved before the table existed, whose hash info is a JSON
	// document in update_hashes.
	HashTable bool `json:"hash_table,omitempty"`
}

// Lineager exposes a set's recovery chain: the sequence of sets that
// must exist (and, for Update/Provenance, be processed) to recover it.
type Lineager interface {
	// Lineage returns the chain from setID back to its full snapshot,
	// starting with setID itself.
	Lineage(setID string) ([]SetInfo, error)
}

// Lineage implements Lineager: walk base pointers until a full save.
// Approaches that only save full snapshots always return one element.
func (b *approachBase) Lineage(setID string) ([]SetInfo, error) {
	var chain []SetInfo
	seen := map[string]bool{}
	for id := setID; id != ""; {
		if seen[id] {
			return nil, fmt.Errorf("core: lineage of %q contains a cycle at %q", setID, id)
		}
		seen[id] = true
		meta, err := loadMeta(b.stores, b.layout, id)
		if err != nil {
			return nil, err
		}
		chain = append(chain, meta)
		if !b.layout.derived(meta) {
			return chain, nil
		}
		id = meta.Base
	}
	return nil, fmt.Errorf("core: lineage of %q ends without a full snapshot", setID)
}
