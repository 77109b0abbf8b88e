// Package aig implements an And-Inverter Graph (AIG), the core logic
// representation used throughout ALMOST. An AIG is a DAG whose internal
// nodes are two-input AND gates and whose edges may carry inversions.
// Every combinational Boolean network can be expressed this way, and all
// synthesis transforms in internal/synth operate on this form, mirroring
// the ABC/yosys flow the paper uses.
//
// Nodes are identified by dense integer IDs; node 0 is the constant-false
// node. A Lit packs a node ID and a complement bit, exactly as in the
// AIGER format. The graph is append-only: transforms build a new AIG via
// reconstruction (see Rebuilder) rather than mutating in place, which
// keeps structural hashing sound and makes every pass deterministic.
package aig

import (
	"fmt"
)

// Lit is a literal: a node ID shifted left by one, with the low bit
// indicating complementation. Lit 0 is constant false, Lit 1 constant true.
type Lit uint32

// Predefined constant literals.
const (
	False Lit = 0
	True  Lit = 1
)

// MakeLit builds a literal from a node ID and a complement flag.
func MakeLit(node int, neg bool) Lit {
	l := Lit(node) << 1
	if neg {
		l |= 1
	}
	return l
}

// Node returns the node ID of the literal.
func (l Lit) Node() int { return int(l >> 1) }

// Neg reports whether the literal is complemented.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf complements the literal iff c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// String renders the literal as, e.g., "n5" or "!n5".
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("!n%d", l.Node())
	}
	return fmt.Sprintf("n%d", l.Node())
}

// Kind distinguishes node types.
type Kind uint8

// Node kinds.
const (
	KindConst Kind = iota // node 0 only
	KindInput             // primary or key input
	KindAnd               // two-input AND
)

type node struct {
	fanin0, fanin1 Lit
	kind           Kind
	level          int32
}

// AIG is a structurally hashed and-inverter graph.
//
// The zero value is not usable; call New.
type AIG struct {
	nodes   []node
	pis     []int // node IDs of inputs, in creation order
	pos     []Lit
	piNames []string
	poNames []string
	isKey   []bool // parallel to pis: true if the input is a key input

	strash map[uint64]int // (fanin0,fanin1) -> AND node ID

	// gen counts Reset calls. Between Resets the node array only grows,
	// so (pointer, gen, node count) identifies the graph's nodes; caches
	// keyed on graph identity (SimScratch schedules, synthesis arenas)
	// include gen so recycled storage — same pointer, rebuilt contents —
	// never serves stale entries.
	gen uint64
}

// New returns an empty AIG containing only the constant node.
func New() *AIG {
	g := &AIG{strash: make(map[uint64]int)}
	g.nodes = append(g.nodes, node{kind: KindConst, level: 0})
	return g
}

// NumNodes returns the total node count including the constant node and inputs.
func (g *AIG) NumNodes() int { return len(g.nodes) }

// NumAnds returns the number of AND nodes (the "gate count" of the AIG).
func (g *AIG) NumAnds() int { return len(g.nodes) - 1 - len(g.pis) }

// NumInputs returns the number of inputs (primary plus key).
func (g *AIG) NumInputs() int { return len(g.pis) }

// NumOutputs returns the number of primary outputs.
func (g *AIG) NumOutputs() int { return len(g.pos) }

// NumKeyInputs returns the number of inputs flagged as key inputs.
func (g *AIG) NumKeyInputs() int {
	n := 0
	for _, k := range g.isKey {
		if k {
			n++
		}
	}
	return n
}

// AddInput appends a primary input with the given name and returns its literal.
func (g *AIG) AddInput(name string) Lit {
	return g.addInput(name, false)
}

// AddKeyInput appends a key input with the given name and returns its
// literal. Key inputs are ordinary inputs structurally but are flagged so
// that attacks and locality extraction can identify them, matching the
// standard logic-locking threat model in which key ports are known.
func (g *AIG) AddKeyInput(name string) Lit {
	return g.addInput(name, true)
}

func (g *AIG) addInput(name string, key bool) Lit {
	id := len(g.nodes)
	g.nodes = append(g.nodes, node{kind: KindInput, level: 0})
	g.pis = append(g.pis, id)
	g.piNames = append(g.piNames, name)
	g.isKey = append(g.isKey, key)
	return MakeLit(id, false)
}

// AddOutput appends a primary output driven by lit.
func (g *AIG) AddOutput(lit Lit, name string) {
	if lit.Node() >= len(g.nodes) {
		panic(fmt.Sprintf("aig: output literal %v references unknown node", lit))
	}
	g.pos = append(g.pos, lit)
	g.poNames = append(g.poNames, name)
}

// SetOutput redirects output index i to drive lit.
func (g *AIG) SetOutput(i int, lit Lit) { g.pos[i] = lit }

// Output returns the literal driving output i.
func (g *AIG) Output(i int) Lit { return g.pos[i] }

// OutputName returns the name of output i.
func (g *AIG) OutputName(i int) string { return g.poNames[i] }

// Input returns the literal of input i (in creation order).
func (g *AIG) Input(i int) Lit { return MakeLit(g.pis[i], false) }

// InputName returns the name of input i.
func (g *AIG) InputName(i int) string { return g.piNames[i] }

// InputIsKey reports whether input i is a key input.
func (g *AIG) InputIsKey(i int) bool { return g.isKey[i] }

// InputIndexOfNode returns the input index for a node ID, or -1.
func (g *AIG) InputIndexOfNode(id int) int {
	for i, p := range g.pis {
		if p == id {
			return i
		}
	}
	return -1
}

// IsAnd reports whether node id is an AND node.
func (g *AIG) IsAnd(id int) bool { return g.nodes[id].kind == KindAnd }

// IsInput reports whether node id is an input node.
func (g *AIG) IsInput(id int) bool { return g.nodes[id].kind == KindInput }

// IsConst reports whether node id is the constant node.
func (g *AIG) IsConst(id int) bool { return g.nodes[id].kind == KindConst }

// Kind returns the kind of node id.
func (g *AIG) Kind(id int) Kind { return g.nodes[id].kind }

// Fanins returns the two fanin literals of an AND node.
func (g *AIG) Fanins(id int) (Lit, Lit) {
	n := &g.nodes[id]
	return n.fanin0, n.fanin1
}

// Level returns the logic level (depth) of node id; inputs are level 0.
func (g *AIG) Level(id int) int { return int(g.nodes[id].level) }

// NumLevels returns the depth of the AIG: the maximum output level.
func (g *AIG) NumLevels() int {
	max := 0
	for _, po := range g.pos {
		if l := g.Level(po.Node()); l > max {
			max = l
		}
	}
	return max
}

func strashKey(a, b Lit) uint64 { return uint64(a)<<32 | uint64(b) }

// And returns a literal implementing a AND b. Trivial cases are folded
// (constants, equal or complementary operands) and structural hashing
// reuses an existing node when one computes the same function of the same
// literals. Fanins are ordered canonically so AND(a,b) == AND(b,a).
func (g *AIG) And(a, b Lit) Lit {
	// Constant and trivial simplifications.
	switch {
	case a == False || b == False || a == b.Not():
		return False
	case a == True:
		return b
	case b == True:
		return a
	case a == b:
		return a
	}
	if a > b {
		a, b = b, a
	}
	if g.strash == nil {
		g.rebuildStrash()
	}
	key := strashKey(a, b)
	if id, ok := g.strash[key]; ok {
		return MakeLit(id, false)
	}
	id := len(g.nodes)
	lv := g.nodes[a.Node()].level
	if l1 := g.nodes[b.Node()].level; l1 > lv {
		lv = l1
	}
	g.nodes = append(g.nodes, node{fanin0: a, fanin1: b, kind: KindAnd, level: lv + 1})
	g.strash[key] = id
	return MakeLit(id, false)
}

// Or returns a literal implementing a OR b.
func (g *AIG) Or(a, b Lit) Lit { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a literal implementing a XOR b, built from three AND nodes
// (unless simplification applies).
func (g *AIG) Xor(a, b Lit) Lit {
	// (a & !b) | (!a & b)
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Xnor returns a literal implementing a XNOR b.
func (g *AIG) Xnor(a, b Lit) Lit { return g.Xor(a, b).Not() }

// Mux returns s ? t : e.
func (g *AIG) Mux(s, t, e Lit) Lit {
	return g.Or(g.And(s, t), g.And(s.Not(), e))
}

// AndN reduces a list of literals by AND, building a balanced tree.
func (g *AIG) AndN(ls []Lit) Lit {
	switch len(ls) {
	case 0:
		return True
	case 1:
		return ls[0]
	}
	mid := len(ls) / 2
	return g.And(g.AndN(ls[:mid]), g.AndN(ls[mid:]))
}

// OrN reduces a list of literals by OR, building a balanced tree.
func (g *AIG) OrN(ls []Lit) Lit {
	inv := make([]Lit, len(ls))
	for i, l := range ls {
		inv[i] = l.Not()
	}
	return g.AndN(inv).Not()
}

// FanoutCountsInto is the scratch-reusing variant of FanoutCounts: the
// buffer is resized (reallocating only when capacity is short), cleared,
// filled, and returned.
//
//almost:hotpath
func (g *AIG) FanoutCountsInto(counts []int) []int {
	if cap(counts) < len(g.nodes) {
		counts = make([]int, len(g.nodes))
	}
	counts = counts[:len(g.nodes)]
	for i := range counts {
		counts[i] = 0
	}
	return g.fanoutCountsInto(counts)
}

// FanoutCounts returns, for every node, the number of fanout references
// from AND nodes and outputs.
func (g *AIG) FanoutCounts() []int {
	return g.fanoutCountsInto(make([]int, len(g.nodes)))
}

//almost:hotpath
func (g *AIG) fanoutCountsInto(counts []int) []int {
	for id := range g.nodes {
		if g.nodes[id].kind != KindAnd {
			continue
		}
		counts[g.nodes[id].fanin0.Node()]++
		counts[g.nodes[id].fanin1.Node()]++
	}
	for _, po := range g.pos {
		counts[po.Node()]++
	}
	return counts
}

// Fanouts returns, for every node, the IDs of AND nodes that reference it.
// Output references are not included; use FanoutCounts for totals.
func (g *AIG) Fanouts() [][]int {
	fo := make([][]int, len(g.nodes))
	for id := range g.nodes {
		if g.nodes[id].kind != KindAnd {
			continue
		}
		f0 := g.nodes[id].fanin0.Node()
		f1 := g.nodes[id].fanin1.Node()
		fo[f0] = append(fo[f0], id)
		if f1 != f0 {
			fo[f1] = append(fo[f1], id)
		}
	}
	return fo
}

// IsPONode reports whether any primary output is driven by node id.
func (g *AIG) IsPONode(id int) bool {
	for _, po := range g.pos {
		if po.Node() == id {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the AIG. The structural-hashing table is
// not copied eagerly: it is rebuilt from the node array on the first And
// call on the copy (see rebuildStrash). This makes Clone cheap — O(nodes)
// slice copies with no map traffic — which matters when handing a private
// copy to every worker of a concurrent evaluator, where most copies are
// only ever read.
func (g *AIG) Clone() *AIG {
	return &AIG{
		nodes:   append([]node(nil), g.nodes...),
		pis:     append([]int(nil), g.pis...),
		pos:     append([]Lit(nil), g.pos...),
		piNames: append([]string(nil), g.piNames...),
		poNames: append([]string(nil), g.poNames...),
		isKey:   append([]bool(nil), g.isKey...),
	}
}

// Generation returns the graph's reset counter. Two observations of the
// same *AIG with equal Generation and NumNodes are guaranteed to expose
// the same nodes (the graph is append-only between Resets), which is the
// invariant scratch/arena caches key on.
func (g *AIG) Generation() uint64 { return g.gen }

// Reset clears the graph back to the empty state (constant node only),
// retaining all allocated storage — node array, interface slices, and the
// structural-hashing table's buckets — for reuse. It is the recycling
// primitive behind arena-backed synthesis: rebuilding into a Reset graph
// performs no steady-state allocations once capacities have warmed up.
//
// The caller must own the graph exclusively: any outstanding reference
// (including a SimScratch that scheduled it) observes the bumped
// generation and rebuilds, but concurrent readers would race.
func (g *AIG) Reset() {
	g.gen++
	g.nodes = append(g.nodes[:0], node{kind: KindConst})
	g.pis = g.pis[:0]
	g.pos = g.pos[:0]
	g.piNames = g.piNames[:0]
	g.poNames = g.poNames[:0]
	g.isKey = g.isKey[:0]
	if g.strash == nil {
		g.strash = make(map[uint64]int)
	} else {
		clear(g.strash)
	}
}

// rebuildStrash reconstructs the structural-hashing table from the node
// array. The graph is append-only and fanins are canonically ordered, so
// the table is a pure function of the nodes; the first node wins on a
// duplicate key, exactly as incremental insertion would have behaved.
func (g *AIG) rebuildStrash() {
	g.strash = make(map[uint64]int, len(g.nodes))
	for id := range g.nodes {
		n := &g.nodes[id]
		if n.kind != KindAnd {
			continue
		}
		k := strashKey(n.fanin0, n.fanin1)
		if _, ok := g.strash[k]; !ok {
			g.strash[k] = id
		}
	}
}

// Rebuilder incrementally copies one AIG into a fresh one, tracking the
// literal mapping. Synthesis transforms use it to apply substitutions:
// copy nodes in topological order, overriding the mapping where the
// transform chose a different implementation. Dangling logic is dropped
// automatically because only logic reachable from mapped outputs is
// recreated by CopyCone.
type Rebuilder struct {
	Src *AIG
	Dst *AIG
	m   []Lit // mapping from src node ID to dst literal; ^0 = unmapped
}

const unmapped = ^Lit(0)

// NewRebuilder creates a rebuilder with all inputs pre-mapped in order.
func NewRebuilder(src *AIG) *Rebuilder {
	rb := &Rebuilder{}
	rb.ResetInto(src, New())
	return rb
}

// Reset re-targets the rebuilder at src with a fresh destination graph,
// reusing the mapping slice's storage. Equivalent to *rb = *NewRebuilder(src)
// minus the per-pass mapping allocation; use ResetInto to also recycle
// destination-graph storage.
func (rb *Rebuilder) Reset(src *AIG) { rb.ResetInto(src, New()) }

// ResetInto re-targets the rebuilder at src, recycling dst (which is
// Reset and must be exclusively owned by the caller) as the destination.
// The rebuilder's mapping slice is reused, so a rebuild pass over a
// warmed rebuilder and recycled graph performs no steady-state
// allocations. The previous destination is untouched — it has usually
// escaped as a pass's result.
//
//almost:hotpath
func (rb *Rebuilder) ResetInto(src, dst *AIG) {
	dst.Reset()
	rb.Src, rb.Dst = src, dst
	if cap(rb.m) < len(src.nodes) {
		rb.m = make([]Lit, len(src.nodes))
	}
	rb.m = rb.m[:len(src.nodes)]
	for i := range rb.m {
		rb.m[i] = unmapped
	}
	rb.m[0] = False
	for i, id := range src.pis {
		var l Lit
		if src.isKey[i] {
			l = dst.AddKeyInput(src.piNames[i])
		} else {
			l = dst.AddInput(src.piNames[i])
		}
		rb.m[id] = l
	}
}

// Map overrides the destination literal for src node id.
func (rb *Rebuilder) Map(id int, l Lit) { rb.m[id] = l }

// Mapped reports whether src node id has a destination literal.
func (rb *Rebuilder) Mapped(id int) bool { return rb.m[id] != unmapped }

// LitOf translates a source literal through the mapping, copying the cone
// on demand.
func (rb *Rebuilder) LitOf(l Lit) Lit {
	return rb.CopyCone(Lit(l &^ 1)).NotIf(l.Neg())
}

// CopyCone recursively copies the cone of src literal l into the
// destination, reusing already-mapped nodes, and returns the destination
// literal.
func (rb *Rebuilder) CopyCone(l Lit) Lit {
	id := l.Node()
	if rb.m[id] == unmapped {
		n := &rb.Src.nodes[id]
		if n.kind != KindAnd {
			panic("aig: unmapped non-AND node in CopyCone")
		}
		a := rb.CopyCone(Lit(n.fanin0 &^ 1)).NotIf(n.fanin0.Neg())
		b := rb.CopyCone(Lit(n.fanin1 &^ 1)).NotIf(n.fanin1.Neg())
		rb.m[id] = rb.Dst.And(a, b)
	}
	return rb.m[id].NotIf(l.Neg())
}

// Finish copies all outputs and returns the destination AIG.
func (rb *Rebuilder) Finish() *AIG {
	for i, po := range rb.Src.pos {
		rb.Dst.AddOutput(rb.LitOf(po), rb.Src.poNames[i])
	}
	return rb.Dst
}

// Cleanup returns a copy of the AIG with dangling nodes removed and nodes
// renumbered in topological order.
func (g *AIG) Cleanup() *AIG {
	return NewRebuilder(g).Finish()
}

// TopoOrder returns the IDs of all AND nodes reachable from outputs, in
// topological (fanin-before-fanout) order. Because the graph is
// append-only, ascending ID order is topological; this filters to the
// live cone.
func (g *AIG) TopoOrder() []int {
	live := make([]bool, len(g.nodes))
	return g.topoOrderInto(live, nil)
}

// topoOrderInto computes TopoOrder using caller-provided buffers: live
// must be a zeroed []bool of NumNodes, order is appended to (pass a
// reused slice truncated to zero length). Fanin IDs are always smaller
// than fanout IDs in an append-only AIG, so liveness propagates in one
// descending sweep with no recursion.
//
//almost:hotpath
func (g *AIG) topoOrderInto(live []bool, order []int) []int {
	for _, po := range g.pos {
		live[po.Node()] = true
	}
	for id := len(g.nodes) - 1; id >= 1; id-- {
		if live[id] && g.nodes[id].kind == KindAnd {
			live[g.nodes[id].fanin0.Node()] = true
			live[g.nodes[id].fanin1.Node()] = true
		}
	}
	for id := 1; id < len(g.nodes); id++ {
		if live[id] && g.nodes[id].kind == KindAnd {
			order = append(order, id) //almost:nolint hotpathalloc // appends into the caller's recycled order buffer
		}
	}
	return order
}

// TopoOrderInto is the scratch-reusing variant of TopoOrder: live is
// resized (reallocating only when capacity is short) and cleared, and
// the order is appended into order[:0]. It returns the resized live
// buffer and the order for the caller to retain for the next call.
//
//almost:hotpath
func (g *AIG) TopoOrderInto(live []bool, order []int) ([]bool, []int) {
	if cap(live) < len(g.nodes) {
		live = make([]bool, len(g.nodes))
	}
	live = live[:len(g.nodes)]
	for i := range live {
		live[i] = false
	}
	return live, g.topoOrderInto(live, order[:0])
}

// Stats summarizes an AIG for reporting.
type Stats struct {
	Inputs, KeyInputs, Outputs, Ands, Levels int
}

// Stats returns summary statistics.
func (g *AIG) Stats() Stats {
	return Stats{
		Inputs:    g.NumInputs() - g.NumKeyInputs(),
		KeyInputs: g.NumKeyInputs(),
		Outputs:   g.NumOutputs(),
		Ands:      g.NumAnds(),
		Levels:    g.NumLevels(),
	}
}

// String implements fmt.Stringer with a one-line summary.
func (g *AIG) String() string {
	s := g.Stats()
	return fmt.Sprintf("aig{pi=%d key=%d po=%d and=%d lev=%d}",
		s.Inputs, s.KeyInputs, s.Outputs, s.Ands, s.Levels)
}

// KeyInputIndices returns the input indices flagged as key inputs, sorted.
func (g *AIG) KeyInputIndices() []int {
	return g.KeyInputIndicesInto(nil)
}

// KeyInputIndicesInto is the scratch-reusing form of KeyInputIndices:
// the indices are written into dst (grown only when capacity is short)
// and returned. The flag slice is scanned in input order, so the result
// is already sorted.
//
//almost:hotpath
func (g *AIG) KeyInputIndicesInto(dst []int) []int {
	n := 0
	for _, k := range g.isKey {
		if k {
			n++
		}
	}
	if cap(dst) < n {
		dst = make([]int, 0, n)
	}
	dst = dst[:0]
	for i, k := range g.isKey {
		if k {
			//almost:nolint hotpathalloc // appends into the cap-reserved buffer grown above
			dst = append(dst, i)
		}
	}
	return dst
}
