package synth

import (
	"github.com/nyu-secml/almost/internal/aig"
)

// Arena bundles every piece of scratch state the synthesis transforms
// need — rebuilders, recycled graph storage, simulation buffers, cut
// storage, window truth-table memos, and the ISOP cost/cover memo — so a
// recipe evaluated thousands of times (the paper's SA hot loop) stops
// paying per-pass allocations. All seven transforms and Recipe.Run accept
// an arena; passing nil makes them allocate a private one, which
// preserves the historical behaviour at the historical cost.
//
// An arena is NOT safe for concurrent use: each engine worker owns one.
// Results are bit-for-bit identical with and without an arena — the arena
// only changes where memory comes from, never what the transforms
// compute.
type Arena struct {
	rb, crb aig.Rebuilder // transform rebuilder + cleanup rebuilder
	free    []*aig.AIG    // recycled graph storage (all Reset)
	sim     aig.SimScratch

	// Topological-order and fanout-count caches for the current source
	// graph, keyed by (pointer, generation, node count).
	topoOwner *aig.AIG
	topoGen   uint64
	topoN     int
	live      []bool
	order     []int
	fcOwner   *aig.AIG
	fcGen     uint64
	fcN       int
	fc        []int

	// Epoch-marked node scratch shared by cone/MFFC walks and the window
	// truth-table evaluator. A nextEpoch call invalidates every array at
	// once, so each bump starts a fresh logical mark set.
	epoch    int32
	mark     []int32 // cone membership
	mffcMark []int32 // MFFC membership
	ref      []int32 // MFFC reference counts
	refEpoch []int32
	ttMark   []int32
	ttMemo   []uint64
	stack    []int

	ttLeaves []int // leaves of the window currently being evaluated

	// ISOP plan memo: cost, polarity choice, and the chosen cover per
	// (truth table, variable count). Persists across passes and recipes —
	// the annealer revisits the same local functions constantly.
	plans      map[ttPlanKey]ttPlan
	costLeaves []aig.Lit

	// SOP construction buffers.
	sopTerms []aig.Lit
	sopLits  []aig.Lit
	sopInv   []aig.Lit

	// Cut enumeration storage: per-node cut lists plus pooled leaf and
	// list arrays, reclaimed wholesale at the start of every enumeration.
	cuts        [][]Cut
	cutLeafAll  [][]int
	cutLeafFree [][]int
	cutListAll  [][]Cut
	cutListFree [][]Cut
	cutLimit    int
	mergeBuf    []int

	// Balance / refactor buffers.
	bools     []bool
	conj      []aig.Lit
	dstLits   []aig.Lit
	winLeaves []int

	// Resub buffers.
	byKey  map[uint64][]int
	negBuf []uint64
}

// NewArena returns an empty arena. Buffers are grown lazily on first use.
func NewArena() *Arena { return &Arena{} }

// ensure returns a, or a private throwaway arena when a is nil.
func ensure(a *Arena) *Arena {
	if a == nil {
		return &Arena{}
	}
	return a
}

// Reset drops the arena's references to previously seen graphs (identity
// caches and the free list keep recycled storage alive otherwise is the
// point — Reset is for callers that want the arena to stop referencing a
// graph, not for reclaiming memory). The ISOP memo survives: it is keyed
// by pure function values, never by graph identity.
func (a *Arena) Reset() {
	a.topoOwner = nil
	a.fcOwner = nil
	a.sim.Reset()
	a.rb.Src, a.rb.Dst = nil, nil
	a.crb.Src, a.crb.Dst = nil, nil
}

// grab returns a recycled (already Reset) graph, or a fresh one.
func (a *Arena) grab() *aig.AIG {
	if n := len(a.free); n > 0 {
		g := a.free[n-1]
		a.free = a.free[:n-1]
		return g
	}
	return aig.New()
}

// Recycle hands a graph's storage back to the arena for reuse by later
// passes. The caller must own g exclusively and must not use it again:
// the graph is Reset immediately (which also invalidates any scratch
// schedule or arena cache keyed on it). Recycling graphs the arena never
// produced is fine — core's evaluation loop hands back each scored
// netlist this way.
func (a *Arena) Recycle(g *aig.AIG) {
	if g == nil {
		return
	}
	g.Reset()
	a.free = append(a.free, g)
}

// begin starts a rebuild pass over src into recycled storage.
func (a *Arena) begin(src *aig.AIG) *aig.Rebuilder {
	a.rb.ResetInto(src, a.grab())
	return &a.rb
}

// finishCleanup completes the pass begun by begin: copy the outputs,
// then strip dangling nodes with a second rebuild (the Finish().Cleanup()
// of the allocating era), recycling the intermediate graph.
func (a *Arena) finishCleanup() *aig.AIG {
	fin := a.rb.Finish()
	a.crb.ResetInto(fin, a.grab())
	out := a.crb.Finish()
	a.Recycle(fin)
	a.rb.Src, a.rb.Dst = nil, nil
	a.crb.Src, a.crb.Dst = nil, nil
	return out
}

// topo returns the cached topological order of g's live AND nodes.
func (a *Arena) topo(g *aig.AIG) []int {
	if a.topoOwner == g && a.topoGen == g.Generation() && a.topoN == g.NumNodes() {
		return a.order
	}
	a.topoOwner, a.topoGen, a.topoN = g, g.Generation(), g.NumNodes()
	a.live, a.order = g.TopoOrderInto(a.live, a.order)
	return a.order
}

// fanoutCounts returns the cached fanout counts of g.
func (a *Arena) fanoutCounts(g *aig.AIG) []int {
	if a.fcOwner == g && a.fcGen == g.Generation() && a.fcN == g.NumNodes() {
		return a.fc
	}
	a.fcOwner, a.fcGen, a.fcN = g, g.Generation(), g.NumNodes()
	a.fc = g.FanoutCountsInto(a.fc)
	return a.fc
}

// boolNodes returns a cleared bool-per-node buffer.
func (a *Arena) boolNodes(n int) []bool {
	if cap(a.bools) < n {
		a.bools = make([]bool, n)
	}
	a.bools = a.bools[:n]
	for i := range a.bools {
		a.bools[i] = false
	}
	return a.bools
}

// nextEpoch grows the epoch-marked arrays to cover n nodes and starts a
// fresh mark set. On (rare) counter wraparound every array is re-zeroed
// so stale marks can never collide with a reused epoch value.
func (a *Arena) nextEpoch(n int) int32 {
	if len(a.mark) < n {
		a.mark = make([]int32, n)
		a.mffcMark = make([]int32, n)
		a.ref = make([]int32, n)
		a.refEpoch = make([]int32, n)
		a.ttMark = make([]int32, n)
		a.ttMemo = make([]uint64, n)
	}
	a.epoch++
	if a.epoch <= 0 {
		for i := range a.mark {
			a.mark[i], a.mffcMark[i], a.refEpoch[i], a.ttMark[i] = 0, 0, 0, 0
		}
		a.epoch = 1
	}
	return a.epoch
}

// --- window truth tables -------------------------------------------------

// windowTT computes the truth table of root as a function of the given
// leaf nodes (at most 6), exactly as (*aig.AIG).WindowTT but with
// epoch-marked memo arrays instead of per-call maps.
func (a *Arena) windowTT(g *aig.AIG, root int, leaves []int) (uint64, bool) {
	if len(leaves) > 6 {
		return 0, false
	}
	e := a.nextEpoch(g.NumNodes())
	a.ttLeaves = append(a.ttLeaves[:0], leaves...)
	v, ok := a.evalTT(g, root, e)
	if !ok {
		return 0, false
	}
	return v & aig.TTMask(len(leaves)), true
}

func (a *Arena) evalTT(g *aig.AIG, id int, e int32) (uint64, bool) {
	for i, l := range a.ttLeaves {
		if l == id {
			return varMask(i), true
		}
	}
	if a.ttMark[id] == e {
		return a.ttMemo[id], true
	}
	switch g.Kind(id) {
	case aig.KindConst:
		return 0, true
	case aig.KindInput:
		return 0, false // input that is not a leaf: window is not closed
	}
	f0, f1 := g.Fanins(id)
	va, ok := a.evalTT(g, f0.Node(), e)
	if !ok {
		return 0, false
	}
	if f0.Neg() {
		va = ^va
	}
	vb, ok := a.evalTT(g, f1.Node(), e)
	if !ok {
		return 0, false
	}
	if f1.Neg() {
		vb = ^vb
	}
	v := va & vb
	a.ttMark[id] = e
	a.ttMemo[id] = v
	return v, true
}

// --- cone / MFFC intersection -------------------------------------------

// savedNodes counts how many AND nodes die if root is reimplemented over
// the cut leaves: the intersection of root's MFFC with the cut cone.
// Identical in result to the historical coneNodes/MFFC map walk, with
// epoch marks instead of maps.
func (a *Arena) savedNodes(g *aig.AIG, root int, leaves []int, fc []int) int {
	e := a.nextEpoch(g.NumNodes())

	// Cone: AND nodes strictly between root and the leaves, marked in
	// a.mark. Iterative DFS — the visit order does not affect the set.
	a.stack = append(a.stack[:0], root)
	for len(a.stack) > 0 {
		id := a.stack[len(a.stack)-1]
		a.stack = a.stack[:len(a.stack)-1]
		isLeaf := false
		for _, l := range leaves {
			if l == id {
				isLeaf = true
				break
			}
		}
		if isLeaf || a.mark[id] == e || !g.IsAnd(id) {
			continue
		}
		a.mark[id] = e
		f0, f1 := g.Fanins(id)
		a.stack = append(a.stack, f0.Node(), f1.Node())
	}

	// MFFC: reference-count fanins as if the root were deleted, counting
	// members that also carry the cone mark.
	if !g.IsAnd(root) {
		return 0
	}
	saved := 0
	if a.mark[root] == e {
		saved++
	}
	a.mffcMark[root] = e
	a.collectMFFC(g, root, fc, e, &saved)
	return saved
}

func (a *Arena) collectMFFC(g *aig.AIG, id int, fc []int, e int32, saved *int) {
	f0, f1 := g.Fanins(id)
	for _, f := range [2]aig.Lit{f0, f1} {
		fid := f.Node()
		if !g.IsAnd(fid) {
			continue
		}
		if a.refEpoch[fid] != e {
			a.refEpoch[fid] = e
			a.ref[fid] = 0
		}
		a.ref[fid]++
		if int(a.ref[fid]) == fc[fid] && a.mffcMark[fid] != e {
			a.mffcMark[fid] = e
			if a.mark[fid] == e {
				*saved++
			}
			a.collectMFFC(g, fid, fc, e, saved)
		}
	}
}

// --- ISOP plans ----------------------------------------------------------

type ttPlanKey struct {
	tt uint64
	n  int8
}

// ttPlan caches everything SynthTT derives from a (tt, n) pair: the
// scratch-graph AND cost (EstimateTTCost's value), whether the
// complemented cover is cheaper, and the chosen cube cover itself.
type ttPlan struct {
	cost  int
	neg   bool
	cover []cube
}

// trivialTT reports whether tt is constant or a single (possibly
// complemented) variable — the cases SynthTT resolves without building
// anything, at cost 0.
func trivialTT(tt uint64, n int) bool {
	mask := aig.TTMask(n)
	tt &= mask
	if tt == 0 || tt == mask {
		return true
	}
	for v := 0; v < n; v++ {
		if tt == varMask(v)&mask || tt == ^varMask(v)&mask {
			return true
		}
	}
	return false
}

// ttPlanFor memoizes the ISOP plan of (tt, n). plan.cost equals
// EstimateTTCost(tt, n) for every input.
func (a *Arena) ttPlanFor(tt uint64, n int) ttPlan {
	mask := aig.TTMask(n)
	tt &= mask
	if trivialTT(tt, n) {
		return ttPlan{}
	}
	key := ttPlanKey{tt: tt, n: int8(n)}
	if a.plans == nil {
		a.plans = make(map[ttPlanKey]ttPlan)
	}
	if p, ok := a.plans[key]; ok {
		return p
	}
	pos := isop(tt, tt, n)
	neg := isop(^tt&mask, ^tt&mask, n)
	cp := a.measureSOP(pos, n)
	cn := a.measureSOP(neg, n)
	p := ttPlan{cost: cp, cover: pos}
	if cp > cn {
		p = ttPlan{cost: cn, neg: true, cover: neg}
	}
	a.plans[key] = p
	return p
}

// measureSOP builds the cover on a recycled scratch graph and returns its
// AND-node count — sopCost with pooled storage.
func (a *Arena) measureSOP(cs []cube, n int) int {
	g := a.grab()
	if cap(a.costLeaves) < n {
		a.costLeaves = make([]aig.Lit, n)
	}
	leaves := a.costLeaves[:n]
	for i := range leaves {
		leaves[i] = g.AddInput("l")
	}
	a.buildSOP(g, cs, leaves)
	c := g.NumAnds()
	a.Recycle(g)
	return c
}

// buildSOP constructs OR-of-AND cubes over the leaf literals in g with
// pooled term/literal buffers — structurally identical to the package
// buildSOP.
func (a *Arena) buildSOP(g *aig.AIG, cs []cube, leaves []aig.Lit) aig.Lit {
	terms := a.sopTerms[:0]
	for _, c := range cs {
		lits := a.sopLits[:0]
		for v := 0; v < len(leaves); v++ {
			if c.mask&(1<<uint(v)) == 0 {
				continue
			}
			lits = append(lits, leaves[v].NotIf(c.value&(1<<uint(v)) == 0))
		}
		a.sopLits = lits
		terms = append(terms, g.AndN(lits))
	}
	a.sopTerms = terms
	inv := a.sopInv[:0]
	for _, t := range terms {
		inv = append(inv, t.Not())
	}
	a.sopInv = inv
	return g.AndN(inv).Not()
}

// synthTT builds an AIG implementation of tt over the leaf literals in g,
// identical in structure to SynthTT but driven by the memoized plan.
func (a *Arena) synthTT(g *aig.AIG, tt uint64, leaves []aig.Lit) aig.Lit {
	n := len(leaves)
	mask := aig.TTMask(n)
	tt &= mask
	switch tt {
	case 0:
		return aig.False
	case mask:
		return aig.True
	}
	for v := 0; v < n; v++ {
		if tt == varMask(v)&mask {
			return leaves[v]
		}
		if tt == ^varMask(v)&mask {
			return leaves[v].Not()
		}
	}
	p := a.ttPlanFor(tt, n)
	root := a.buildSOP(g, p.cover, leaves)
	if p.neg {
		return root.Not()
	}
	return root
}

// --- cut enumeration -----------------------------------------------------

// leafArr returns a pooled leaf array with capacity >= limit.
func (a *Arena) leafArr(limit int) []int {
	if n := len(a.cutLeafFree); n > 0 {
		s := a.cutLeafFree[n-1]
		a.cutLeafFree = a.cutLeafFree[:n-1]
		return s[:0]
	}
	s := make([]int, 0, limit)
	a.cutLeafAll = append(a.cutLeafAll, s)
	return s
}

func (a *Arena) putLeafArr(s []int) {
	a.cutLeafFree = append(a.cutLeafFree, s[:0])
}

// listArr returns a pooled cut-list array with capacity cutsPerNode+1.
func (a *Arena) listArr() []Cut {
	if n := len(a.cutListFree); n > 0 {
		s := a.cutListFree[n-1]
		a.cutListFree = a.cutListFree[:n-1]
		return s[:0]
	}
	s := make([]Cut, 0, cutsPerNode+1)
	a.cutListAll = append(a.cutListAll, s)
	return s
}

// enumerateCuts computes up to cutsPerNode k-feasible cuts for every live
// AND node, exactly as EnumerateCuts, into arena-pooled storage indexed
// by node ID. The returned lists (and their leaf slices) are valid until
// the next enumerateCuts call on this arena.
func (a *Arena) enumerateCuts(g *aig.AIG, limit int) [][]Cut {
	// Reclaim every array handed out by the previous enumeration.
	if a.cutLimit != limit {
		// Pool entries are sized for a specific limit; a different limit
		// (never happens with the built-in transforms) drops the pool.
		a.cutLeafAll, a.cutLeafFree = nil, nil
		a.cutLimit = limit
	}
	a.cutLeafFree = append(a.cutLeafFree[:0], a.cutLeafAll...)
	a.cutListFree = append(a.cutListFree[:0], a.cutListAll...)
	if cap(a.mergeBuf) < 2*limit+2 {
		a.mergeBuf = make([]int, 0, 2*limit+2)
	}

	n := g.NumNodes()
	if cap(a.cuts) < n {
		a.cuts = make([][]Cut, n)
	}
	a.cuts = a.cuts[:n]
	for i := range a.cuts {
		a.cuts[i] = nil
	}

	// unit builds the trivial cut {id} from the pool.
	unit := func(id int) Cut {
		s := a.leafArr(limit)
		return Cut{Leaves: append(s, id)}
	}
	for _, id := range a.topo(g) {
		f0, f1 := g.Fanins(id)
		var unitBuf0, unitBuf1 [1]Cut
		c0 := a.cuts[f0.Node()]
		if c0 == nil {
			unitBuf0[0] = unit(f0.Node())
			c0 = unitBuf0[:1]
		}
		c1 := a.cuts[f1.Node()]
		if c1 == nil {
			unitBuf1[0] = unit(f1.Node())
			c1 = unitBuf1[:1]
		}
		out := a.listArr()
	merge:
		for _, x := range c0 {
			for _, y := range c1 {
				m, ok := mergeCutsInto(a.mergeBuf[:0], x, y, limit)
				a.mergeBuf = m[:0]
				if !ok {
					continue
				}
				mc := Cut{Leaves: m}
				for k := 0; k < len(out); k++ {
					if dominates(out[k], mc) {
						continue merge
					}
				}
				// Remove cuts dominated by the new one, recycling their
				// leaf arrays.
				kept := out[:0]
				for _, ex := range out {
					if dominates(mc, ex) {
						a.putLeafArr(ex.Leaves)
						continue
					}
					kept = append(kept, ex)
				}
				out = kept
				persisted := append(a.leafArr(limit), m...)
				out = append(out, Cut{Leaves: persisted})
				if len(out) >= cutsPerNode {
					break merge
				}
			}
		}
		out = append(out, unit(id))
		a.cuts[id] = out
	}
	return a.cuts
}
