package aig

// fnv64 constants (FNV-1a).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// StructuralDigest returns a 64-bit FNV-1a digest of the graph's exact
// structure: node kinds and fanin literals in ID order, input names and
// key flags, and output literals and names. Two graphs have equal
// digests iff (modulo hash collisions) they are node-for-node identical.
// Levels are derived state and excluded.
//
// The digest is O(nodes); the engine computes it once per evaluator base
// (it prefixes every cache key), never per candidate.
func (g *AIG) StructuralDigest() uint64 {
	h := uint64(fnvOffset)
	h = fnvU64(h, uint64(len(g.nodes)))
	h = fnvU64(h, uint64(len(g.pis)))
	h = fnvU64(h, uint64(len(g.pos)))
	for i, id := range g.pis {
		h = fnvU64(h, uint64(id))
		h = fnvStr(h, g.piNames[i])
		if g.isKey[i] {
			h = fnvU64(h, 1)
		} else {
			h = fnvU64(h, 0)
		}
	}
	for id := range g.nodes {
		n := &g.nodes[id]
		h = fnvU64(h, uint64(n.kind))
		if n.kind == KindAnd {
			h = fnvU64(h, uint64(n.fanin0)<<32|uint64(n.fanin1))
		}
	}
	for i, po := range g.pos {
		h = fnvU64(h, uint64(po))
		h = fnvStr(h, g.poNames[i])
	}
	return h
}
