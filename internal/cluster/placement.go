package cluster

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
)

// Placement: which ring key a set hashes under.
//
// Sets are not placed by hashing their ID directly — a derived set
// must land on the same replicas as its base, or recovering it would
// need a cross-node chain walk. Instead every router-minted ID embeds
// a placement group token ("g" + 16 hex digits, '-'-delimited): root
// sets get a fresh group derived from their idempotency key, derived
// sets carry their base's group. PlacementKey extracts the token, so
// the whole lineage shares one ring position. IDs without a token
// (saved outside the router) fall back to hashing the ID itself, which
// is stable if arbitrary — and is the group a set derived from them
// carries.

// groupLen and derivedLen size the hex tokens: 64 bits of group, 48
// bits of per-derivation suffix — collision-safe far beyond the set
// counts a management store holds.
const (
	groupLen   = 16
	derivedLen = 12
)

// MintID deterministically derives the cluster-wide set ID for a
// logical save: the same idempotency key always mints the same ID, so
// every replica stores the save under one name and a retry can never
// mint a second identity. base is the ID of the set the save derives
// from ("" for root saves). A derived ID is "r-g<base's group>-d" plus
// a digest of (base, key): 33 bytes at any lineage depth.
func MintID(idempotencyKey, base string) string {
	if base == "" {
		sum := sha256.Sum256([]byte("root:" + idempotencyKey))
		return "r-g" + hex.EncodeToString(sum[:])[:groupLen]
	}
	sum := sha256.Sum256([]byte("derived:" + base + ":" + idempotencyKey))
	return "r-g" + group(base) + "-d" + hex.EncodeToString(sum[:])[:derivedLen]
}

// PlacementKey maps a set ID onto its ring key: its placement group,
// so a base and everything derived from it co-locate.
func PlacementKey(setID string) string {
	return "group:" + group(setID)
}

// group is the placement group of a set ID: the embedded token when
// the ID was router-minted, a hash of the full ID otherwise.
func group(setID string) string {
	for _, seg := range strings.Split(setID, "-") {
		if len(seg) == groupLen+1 && seg[0] == 'g' && isHex(seg[1:]) {
			return seg[1:]
		}
	}
	sum := sha256.Sum256([]byte("set:" + setID))
	return hex.EncodeToString(sum[:])[:groupLen]
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
