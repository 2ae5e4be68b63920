// Package cluster scales multi-model management horizontally: a
// consistent-hash ring places every model set (and, through it, the
// set's CAS chunks) on R of N mmserve nodes, and a stateless router
// fans client operations out to the owners — quorum writes under one
// minted set ID that each replica stores exactly once, reads
// served by any live replica with automatic failover, and rebalancing
// after membership changes that moves only the chunk bytes a
// destination is missing (the pull protocol's cache diff doubles as
// the transfer diff).
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// hash64 maps a key onto the ring's keyspace: the first 8 bytes of its
// SHA-256, big endian. Cryptographic dispersion keeps vnode points
// uniform without a seeded hash — and therefore stable across
// processes, which ring placement requires.
func hash64(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// DefaultVNodes is the virtual-node count per member. 64 points per
// node keeps the expected load imbalance of a small cluster within a
// few percent while the ring stays tiny (N×64 points).
const DefaultVNodes = 64

// ringPoint is one virtual node: a position on the ring owned by a
// member.
type ringPoint struct {
	hash uint64
	node string
}

// ring is an immutable consistent-hash ring. The Table rebuilds one on
// every membership change; lookups walk clockwise from a key's hash
// collecting distinct owners.
type ring struct {
	points []ringPoint // sorted by hash
	nodes  int         // distinct members
}

// buildRing places vnodes points per node. Point k of node n sits at
// hash64(n + "#" + k); collisions across nodes are broken by name so
// the ring is deterministic regardless of insertion order.
func buildRing(nodes []string, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &ring{points: make([]ringPoint, 0, len(nodes)*vnodes), nodes: len(nodes)}
	for _, n := range nodes {
		for k := 0; k < vnodes; k++ {
			r.points = append(r.points, ringPoint{hash: hash64(n + "#" + strconv.Itoa(k)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// owners returns up to n distinct nodes for key, walking clockwise
// from the key's ring position. The first owner is the key's primary;
// the rest are its replicas. A key's owner sequence only changes for
// keys whose arc a membership change touched — the property that keeps
// rebalances incremental.
func (r *ring) owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > r.nodes {
		n = r.nodes
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// sequence returns every distinct node in ring order from key's
// position — the owners first, then the rest. Read paths use it as a
// probe order that tries likely holders before long shots.
func (r *ring) sequence(key string) []string {
	return r.owners(key, r.nodes)
}
