package aig

import (
	"fmt"
	"math/rand"
)

// simGate is one AND evaluation in a levelized schedule: read the two
// fanin rows, complement as the literals say, write the output row.
type simGate struct {
	f0, f1 Lit
	out    int32
}

// SimScratch holds reusable, caller-owned simulation state: the
// levelized gate schedule of the last simulated graph plus the per-node
// value buffer. A scratch may be reused across calls and across graphs
// (the schedule is rebuilt automatically when the graph changes); it must
// not be shared between goroutines. The zero value is ready to use.
//
// Slices returned by SignaturesInto alias the scratch buffer and are
// valid only until the scratch's next use.
type SimScratch struct {
	owner  *AIG
	gen    uint64
	nNodes int
	sched  []simGate
	vals   []uint64
	rows   [][]uint64
}

// Reset drops the cached schedule and releases no memory: buffers are
// kept for reuse, but the next simulation rebuilds the schedule. Call it
// to drop the scratch's reference to a graph (AIG.Reset already
// invalidates the schedule via the graph's generation stamp).
func (s *SimScratch) Reset() {
	s.owner = nil
	s.nNodes = 0
	s.sched = s.sched[:0]
}

// schedule returns the levelized AND-gate schedule of g, rebuilding it
// unless the scratch last scheduled the same graph identity (pointer,
// generation, node count) — between Resets an AIG only grows, so that
// triple pins its nodes. Ascending node ID is a topological — hence
// level-respecting — order in an append-only AIG, so the schedule is the
// AND nodes in ID order with their fanin literals flattened out of the
// node array.
//
//almost:hotpath
func (s *SimScratch) schedule(g *AIG) []simGate {
	if s.owner == g && s.gen == g.gen && s.nNodes == len(g.nodes) {
		return s.sched
	}
	s.owner, s.gen, s.nNodes = g, g.gen, len(g.nodes)
	if cap(s.sched) < g.NumAnds() {
		s.sched = make([]simGate, 0, g.NumAnds())
	}
	s.sched = s.sched[:0]
	for id := 1; id < len(g.nodes); id++ {
		n := &g.nodes[id]
		if n.kind == KindAnd {
			//almost:nolint hotpathalloc // appends into the cap-reserved schedule buffer grown above
			s.sched = append(s.sched, simGate{f0: n.fanin0, f1: n.fanin1, out: int32(id)})
		}
	}
	return s.sched
}

// buf returns the scratch value buffer resized to n words, reallocating
// (with headroom, so a scratch that sees slowly growing graphs does not
// reallocate on every call) only when its capacity is short. Every
// simulation writes each row before reading it, so stale contents never
// leak into a result.
//
//almost:hotpath
func (s *SimScratch) buf(n int) []uint64 {
	if cap(s.vals) < n {
		s.vals = make([]uint64, n, n+n/8)
	}
	return s.vals[:n]
}

// simCore runs the schedule over a node-major value buffer with stride w
// words per node. This is the single literal-evaluation loop behind
// Simulate64, SimulateWords, Signatures, and their Into variants.
//
//almost:hotpath
func simCore(sched []simGate, vals []uint64, w int) {
	if w == 1 {
		for _, op := range sched {
			a := vals[op.f0>>1]
			if op.f0&1 != 0 {
				a = ^a
			}
			b := vals[op.f1>>1]
			if op.f1&1 != 0 {
				b = ^b
			}
			vals[op.out] = a & b
		}
		return
	}
	// Wide path: complementation is a branch-free XOR with an all-ones
	// mask — `a^0 == a` and `a^^uint64(0) == ^a`, so each word's value is
	// bit-identical to the branching form above.
	for _, op := range sched {
		av := vals[int(op.f0>>1)*w:][:w]
		bv := vals[int(op.f1>>1)*w:][:w]
		out := vals[int(op.out)*w:][:w]
		var am, bm uint64
		if op.f0&1 != 0 {
			am = ^uint64(0)
		}
		if op.f1&1 != 0 {
			bm = ^uint64(0)
		}
		for k := range out {
			out[k] = (av[k] ^ am) & (bv[k] ^ bm)
		}
	}
}

// SimulateInto is the scratch-reusing core of Simulate64: 64-way
// bit-parallel simulation writing the per-output words into dst, which is
// grown (reallocated) only when its capacity is short. It returns
// dst[:NumOutputs]. With a warm scratch and an adequate dst it performs
// no allocations. s must not be nil.
//
//almost:hotpath
func (g *AIG) SimulateInto(s *SimScratch, dst, in []uint64) []uint64 {
	if len(in) != len(g.pis) {
		panic(fmt.Sprintf("aig: SimulateInto input width mismatch: %d patterns for %d inputs", len(in), len(g.pis)))
	}
	sched := s.schedule(g)
	vals := s.buf(len(g.nodes))
	vals[0] = 0
	for i, id := range g.pis {
		vals[id] = in[i]
	}
	simCore(sched, vals, 1)
	if cap(dst) < len(g.pos) {
		dst = make([]uint64, len(g.pos))
	}
	dst = dst[:len(g.pos)]
	for i, po := range g.pos {
		v := vals[po.Node()]
		if po.Neg() {
			v = ^v
		}
		dst[i] = v
	}
	return dst
}

// Simulate64 performs 64-way bit-parallel simulation. in holds one 64-bit
// pattern word per input (in input creation order); the returned slice
// holds one word per output. Bit i of each word is an independent pattern.
// It is a thin allocating wrapper over SimulateInto; hot loops should
// hold a SimScratch and call SimulateInto directly.
func (g *AIG) Simulate64(in []uint64) []uint64 {
	if len(in) != len(g.pis) {
		panic("aig: Simulate64 input width mismatch")
	}
	var s SimScratch
	return g.SimulateInto(&s, nil, in)
}

// SimulateWordsInto is the scratch-reusing core of SimulateWords:
// bit-parallel simulation with w words per signal, writing per-output
// rows into dst. dst and its rows are grown only when capacity is short;
// pass the previous return value to reuse them. The result rows are
// caller-owned (they do not alias the scratch). s must not be nil.
//
//almost:hotpath
func (g *AIG) SimulateWordsInto(s *SimScratch, dst [][]uint64, in [][]uint64, w int) [][]uint64 {
	if len(in) != len(g.pis) {
		panic(fmt.Sprintf("aig: SimulateWordsInto input width mismatch: %d patterns for %d inputs", len(in), len(g.pis)))
	}
	if w < 1 {
		panic(fmt.Sprintf("aig: SimulateWordsInto needs w >= 1 words, got %d", w))
	}
	for i := range in {
		if len(in[i]) < w {
			panic(fmt.Sprintf("aig: SimulateWordsInto input %d has %d words, need %d", i, len(in[i]), w))
		}
	}
	sched := s.schedule(g)
	vals := s.buf(len(g.nodes) * w)
	for k := 0; k < w; k++ {
		vals[k] = 0
	}
	for i, id := range g.pis {
		copy(vals[id*w:id*w+w], in[i][:w])
	}
	simCore(sched, vals, w)
	if cap(dst) < len(g.pos) {
		dst = make([][]uint64, len(g.pos))
	}
	dst = dst[:len(g.pos)]
	for i, po := range g.pos {
		row := dst[i]
		if cap(row) < w {
			row = make([]uint64, w)
		}
		row = row[:w]
		v := vals[po.Node()*w:]
		if po.Neg() {
			for k := 0; k < w; k++ {
				row[k] = ^v[k]
			}
		} else {
			copy(row, v[:w])
		}
		dst[i] = row
	}
	return dst
}

// SimulateWords runs bit-parallel simulation with w words per signal
// (64*w patterns). in is indexed [input][word]; every row must carry at
// least w words. The result is indexed [output][word]. Like Simulate64,
// it panics with a descriptive message on a shape mismatch rather than
// failing with an index error deep in the node loop. It is a thin
// allocating wrapper over SimulateWordsInto.
func (g *AIG) SimulateWords(in [][]uint64, w int) [][]uint64 {
	if len(in) != len(g.pis) {
		panic(fmt.Sprintf("aig: SimulateWords input width mismatch: %d patterns for %d inputs", len(in), len(g.pis)))
	}
	if w < 1 {
		panic(fmt.Sprintf("aig: SimulateWords needs w >= 1 words, got %d", w))
	}
	for i := range in {
		if len(in[i]) < w {
			panic(fmt.Sprintf("aig: SimulateWords input %d has %d words, need %d", i, len(in[i]), w))
		}
	}
	var s SimScratch
	return g.SimulateWordsInto(&s, nil, in, w)
}

// EvalSingle evaluates the AIG on a single Boolean input assignment.
// It panics with a descriptive message when len(in) does not match the
// input count.
func (g *AIG) EvalSingle(in []bool) []bool {
	if len(in) != len(g.pis) {
		panic(fmt.Sprintf("aig: EvalSingle input width mismatch: %d values for %d inputs", len(in), len(g.pis)))
	}
	words := make([]uint64, len(in))
	for i, b := range in {
		if b {
			words[i] = 1
		}
	}
	out := g.Simulate64(words)
	res := make([]bool, len(out))
	for i, w := range out {
		res[i] = w&1 == 1
	}
	return res
}

// RandomPatterns generates one random 64-pattern word per input.
func RandomPatterns(rng *rand.Rand, nIn int) []uint64 {
	in := make([]uint64, nIn)
	for i := range in {
		in[i] = rng.Uint64()
	}
	return in
}

// SignaturesInto computes a per-node simulation signature of w words
// using random patterns from rng, reusing the scratch's buffers. The
// returned rows (one per node, indexed by node ID) alias the scratch and
// are valid only until the scratch's next use; callers that need to
// retain them must copy. It panics when w < 1 (a zero-width signature
// would make every pair of nodes look equivalent downstream). s must not
// be nil.
//
//almost:hotpath
func (g *AIG) SignaturesInto(s *SimScratch, rng *rand.Rand, w int) [][]uint64 {
	if w < 1 {
		panic(fmt.Sprintf("aig: SignaturesInto needs w >= 1 words, got %d", w))
	}
	sched := s.schedule(g)
	vals := s.buf(len(g.nodes) * w)
	// Draw input patterns in input order, matching Signatures' historical
	// rng consumption exactly so seeded results are stable.
	for _, id := range g.pis {
		row := vals[id*w : id*w+w]
		for k := range row {
			row[k] = rng.Uint64()
		}
	}
	for k := 0; k < w; k++ {
		vals[k] = 0
	}
	simCore(sched, vals, w)
	n := len(g.nodes)
	if cap(s.rows) < n {
		s.rows = make([][]uint64, n, n+n/8)
	}
	s.rows = s.rows[:n]
	for id := range s.rows {
		s.rows[id] = vals[id*w : id*w+w]
	}
	return s.rows
}

// Signatures computes a per-node simulation signature of w words using
// random patterns from rng. Used by resubstitution to find candidate
// divisors and by equivalence filtering. It panics with a descriptive
// message when w < 1. It is a thin wrapper over SignaturesInto with a
// throwaway scratch, so the returned rows are caller-owned.
func (g *AIG) Signatures(rng *rand.Rand, w int) [][]uint64 {
	if w < 1 {
		panic(fmt.Sprintf("aig: Signatures needs w >= 1 words, got %d", w))
	}
	var s SimScratch
	return g.SignaturesInto(&s, rng, w)
}

// EquivalentBySim checks functional equivalence of two AIGs with the same
// input/output interface by random simulation with rounds*64 patterns.
// It is a necessary (not sufficient) check; internal/cnf provides exact
// SAT-based checking. Returns false on any detected mismatch. Buffers are
// reused across rounds, so the cost is two schedules plus three slices
// regardless of the round count.
func EquivalentBySim(a, b *AIG, rng *rand.Rand, rounds int) bool {
	if a.NumInputs() != b.NumInputs() || a.NumOutputs() != b.NumOutputs() {
		return false
	}
	var sa, sb SimScratch
	in := make([]uint64, a.NumInputs())
	var oa, ob []uint64
	for r := 0; r < rounds; r++ {
		for i := range in {
			in[i] = rng.Uint64()
		}
		oa = a.SimulateInto(&sa, oa, in)
		ob = b.SimulateInto(&sb, ob, in)
		for i := range oa {
			if oa[i] != ob[i] {
				return false
			}
		}
	}
	return true
}
