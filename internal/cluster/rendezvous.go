// Package cluster turns a set of streamd nodes into a clip-sharded
// serving fleet. Rendezvous (highest-random-weight) hashing over the
// configured member list assigns each artifact key to exactly one
// shard owner; a non-owner that misses its local cache and store fills
// from the owner over a small fetch-artifact RPC (the AFR2 framing in
// afr.go) instead of recomputing, so each artifact is computed once
// fleet-wide. Membership is churn-tolerant by construction: rendezvous
// hashing moves only the keys owned by a departed node, per-peer
// circuit breakers route around unhealthy owners, and every fill
// falls back to local compute — a cluster of one degraded node still
// serves every request the single-node system could.
package cluster

import (
	"hash/fnv"
	"sort"
)

// RouteKey is the sharding key: artifact kind plus content digest.
// Quality and device are deliberately excluded — all variants of one
// clip land on the same owner, so a ladder walk hits one peer's warm
// cache instead of scattering across the fleet.
func RouteKey(kind, digest string) string {
	return kind + "\x00" + digest
}

// score is the rendezvous weight of (member, key): a 64-bit FNV-1a
// over the member address and the key, scrambled through a 64-bit
// finalizer. The finalizer matters: raw FNV-1a of prefix||suffix moves
// almost linearly with short suffix changes, so without it the member
// prefix dominates the magnitude and one member wins every key. Every
// node computes the same scores from the same member list, so routing
// needs no coordination.
func score(member, key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(member))
	h.Write([]byte{0})
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Owner returns the member with the highest rendezvous score for key.
// Ties break toward the lexically smaller address so every node agrees.
// An empty member list returns "".
func Owner(members []string, key string) string {
	best := ""
	var bestScore uint64
	for _, m := range members {
		s := score(m, key)
		if best == "" || s > bestScore || (s == bestScore && m < best) {
			best, bestScore = m, s
		}
	}
	return best
}

// RankedOwners returns the members ordered by descending rendezvous
// score for key: the head is the owner, the tail the failover order a
// caller walks when the owner's breaker is open. The input slice is
// not modified.
func RankedOwners(members []string, key string) []string {
	type cand struct {
		addr string
		s    uint64
	}
	cands := make([]cand, 0, len(members))
	for _, m := range members {
		cands = append(cands, cand{m, score(m, key)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].s != cands[j].s {
			return cands[i].s > cands[j].s
		}
		return cands[i].addr < cands[j].addr
	})
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.addr
	}
	return out
}
