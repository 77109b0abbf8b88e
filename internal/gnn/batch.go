package gnn

import (
	"github.com/nyu-secml/almost/internal/nn"
)

// Batch packs K subgraphs into one inference unit: node features stacked
// into a single tall matrix and the K adjacencies laid out block-diagonal
// as batch-local neighbor lists. A GIN forward over the batch is then K
// independent forwards expressed as single blocked matmuls — every
// matrix op in the stack is row-local, so each graph's rows see exactly
// the arithmetic of a forward over that graph alone, and the logits are
// bit-for-bit the training forward's. A single graph is scored as a batch
// of one.
//
// Ownership contract (the batch seam): a Batch and everything reachable
// from it — X, Off, Adj rows, Labels — is owned by whoever filled it
// (subgraph.Extractor batched extraction, or PackInto) and is valid only
// until that filler's next use of the same Batch. Model methods taking a
// *Batch never retain references past the call; Unpack copies out.
type Batch struct {
	X      *nn.Matrix // ΣN×f packed node features
	Off    []int      // len K+1; graph g owns feature rows [Off[g], Off[g+1])
	Adj    [][]int    // len ΣN; neighbor lists in batch-local row indices
	Labels []int      // len K; per-graph labels (0 when unlabeled)

	edges []int // slab backing the Adj rows
	deg   []int // degree scratch for PackInto
}

// Graphs returns the number of packed graphs.
func (b *Batch) Graphs() int {
	if len(b.Off) == 0 {
		return 0
	}
	return len(b.Off) - 1
}

// Reset sizes the batch for `graphs` graphs totalling `nodes` feature
// rows of width feat, reusing prior capacity. X is zeroed; Off and Labels
// are zeroed; Adj rows are cleared (use InitAdj + AddEdge to rebuild).
//
//almost:hotpath
func (b *Batch) Reset(nodes, feat, graphs int) {
	need := nodes * feat
	if b.X == nil || cap(b.X.D) < need {
		b.X = &nn.Matrix{}
		b.X.D = make([]float64, need)
	}
	b.X.R, b.X.C = nodes, feat
	b.X.D = b.X.D[:need]
	b.X.Zero()
	if cap(b.Off) < graphs+1 {
		b.Off = make([]int, graphs+1)
	}
	b.Off = b.Off[:graphs+1]
	for i := range b.Off {
		b.Off[i] = 0
	}
	if cap(b.Labels) < graphs {
		b.Labels = make([]int, graphs)
	}
	b.Labels = b.Labels[:graphs]
	for i := range b.Labels {
		b.Labels[i] = 0
	}
	if cap(b.Adj) < nodes {
		b.Adj = make([][]int, nodes)
	}
	b.Adj = b.Adj[:nodes]
	for i := range b.Adj {
		b.Adj[i] = nil
	}
}

// InitAdj prepares the adjacency rows from a per-row degree count: row i
// becomes an empty slice with capacity deg[i] carved out of one shared
// slab, so the AddEdge fill pass performs no allocation. len(deg) must
// equal the node count passed to Reset.
//
//almost:hotpath
func (b *Batch) InitAdj(deg []int) {
	total := 0
	for _, d := range deg {
		total += d
	}
	if cap(b.edges) < total {
		b.edges = make([]int, total)
	}
	b.edges = b.edges[:total]
	at := 0
	for i, d := range deg {
		b.Adj[i] = b.edges[at : at : at+d]
		at += d
	}
}

// AddEdge appends neighbor j to row i's list. Callers must have declared
// enough degree in InitAdj; the append then lands in the slab. The fill
// order across AddEdge calls defines each row's neighbor order, which is
// what the aggregation sums over.
//
//almost:hotpath
func (b *Batch) AddEdge(i, j int) {
	//almost:nolint hotpathalloc // lands in the InitAdj slab; a cap overrun is a caller bug
	b.Adj[i] = append(b.Adj[i], j)
}

// PackInto packs pre-extracted graphs into b (reusing its buffers) and
// returns b, allocating one if nil. The packed rows reproduce each
// graph's features and neighbor order exactly.
func PackInto(b *Batch, gs []*Graph) *Batch {
	if b == nil {
		b = &Batch{}
	}
	nodes, feat := 0, 0
	for _, g := range gs {
		nodes += g.X.R
		feat = g.X.C
	}
	b.Reset(nodes, feat, len(gs))
	at := 0
	for gi, g := range gs {
		b.Off[gi] = at
		b.Labels[gi] = g.Label
		copy(b.X.D[at*feat:(at+g.X.R)*feat], g.X.D)
		at += g.X.R
	}
	b.Off[len(gs)] = at
	if cap(b.deg) < nodes {
		b.deg = make([]int, nodes)
	}
	deg := b.deg[:nodes]
	for gi, g := range gs {
		base := b.Off[gi]
		for i, row := range g.Adj {
			deg[base+i] = len(row)
		}
	}
	b.InitAdj(deg)
	for gi, g := range gs {
		base := b.Off[gi]
		for i, row := range g.Adj {
			for _, j := range row {
				b.AddEdge(base+i, base+j)
			}
		}
	}
	return b
}

// Unpack copies the packed graphs out as standalone training graphs, in
// batch order: graph g gets feature rows [Off[g], Off[g+1]) and its
// neighbor lists rebased to graph-local indices, in the same order. All
// features share one new slab and all neighbor lists another, so the
// result does not alias b and stays valid across b's reuse.
func (b *Batch) Unpack() []*Graph {
	k := b.Graphs()
	feat := b.X.C
	xs := make([]float64, len(b.X.D))
	copy(xs, b.X.D)
	edges := make([]int, 0, len(b.edges))
	adj := make([][]int, len(b.Adj))
	gs := make([]*Graph, k)
	for g := 0; g < k; g++ {
		lo, hi := b.Off[g], b.Off[g+1]
		for i := lo; i < hi; i++ {
			at := len(edges)
			for _, j := range b.Adj[i] {
				edges = append(edges, j-lo)
			}
			adj[i] = edges[at:len(edges):len(edges)]
		}
		gs[g] = &Graph{
			X:     &nn.Matrix{R: hi - lo, C: feat, D: xs[lo*feat : hi*feat : hi*feat]},
			Adj:   adj[lo:hi:hi],
			Label: b.Labels[g],
		}
	}
	return gs
}

// forwardLogits runs the inference forward over a packed batch with
// pooled matrices, returning the scratch-owned K×2 logits (row g = graph
// g). Row g's arithmetic matches the training forward on graph g exactly:
// the GIN layers, bias adds, and ReLUs are row-local; the block-diagonal
// aggregation sums the same neighbor rows in the same order; and the
// readout sums graph g's rows ascending before one division.
func (m *Model) forwardLogits(sc *Scratch, b *Batch) *nn.Matrix {
	k := b.Graphs()
	h := b.X
	owned := false
	for _, l := range m.layers {
		agg := sc.mat(h.R, h.C)
		aggregateInto(agg, h, b.Adj, m.cfg.Eps)
		a1 := sc.mat(h.R, l.l1.OutDim())
		nn.ReLUInPlace(l.l1.ForwardInto(a1, agg))
		out := sc.mat(h.R, l.l2.OutDim())
		nn.ReLUInPlace(l.l2.ForwardInto(out, a1))
		sc.put(agg)
		sc.put(a1)
		if owned {
			sc.put(h)
		}
		h, owned = out, true
	}
	pooled := sc.mat(k, h.C)
	pooled.Zero()
	for g := 0; g < k; g++ {
		pr := pooled.Row(g)
		lo, hi := b.Off[g], b.Off[g+1]
		for i := lo; i < hi; i++ {
			hr := h.Row(i)
			for j := range pr {
				pr[j] += hr[j]
			}
		}
		n := float64(hi - lo)
		for j := range pr {
			pr[j] /= n
		}
	}
	if owned {
		sc.put(h)
	}
	hid := sc.mat(k, m.head1.OutDim())
	nn.ReLUInPlace(m.head1.ForwardInto(hid, pooled))
	logits := sc.mat(k, m.head2.OutDim())
	m.head2.ForwardInto(logits, hid)
	sc.put(pooled)
	sc.put(hid)
	return logits
}

// PredictProbBatchWith returns P(label=1) for every packed graph, in
// batch order, appended to dst (pass dst[:0] to reuse). sc may be nil
// for a private scratch.
//
//almost:hotpath
func (m *Model) PredictProbBatchWith(sc *Scratch, b *Batch, dst []float64) []float64 {
	if sc == nil {
		sc = NewScratch()
	}
	logits := m.forwardLogits(sc, b)
	for g := 0; g < b.Graphs(); g++ {
		//almost:nolint hotpathalloc // appends into the caller-provided result buffer by contract
		dst = append(dst, softmaxProb1(logits.Row(g)))
	}
	sc.put(logits)
	return dst
}

// AccuracyBatchWith evaluates classification accuracy of the packed
// graphs against b.Labels (0 for an empty batch). sc may be nil for a
// private scratch.
//
//almost:hotpath
func (m *Model) AccuracyBatchWith(sc *Scratch, b *Batch) float64 {
	k := b.Graphs()
	if k == 0 {
		return 0
	}
	if sc == nil {
		sc = NewScratch()
	}
	logits := m.forwardLogits(sc, b)
	n := 0
	for g := 0; g < k; g++ {
		pred := 0
		if softmaxProb1(logits.Row(g)) >= 0.5 {
			pred = 1
		}
		if pred == b.Labels[g] {
			n++
		}
	}
	sc.put(logits)
	return float64(n) / float64(k)
}

// LossBatchWith computes, without updating, the mean CE loss of the
// packed graphs against b.Labels (0 for an empty batch). sc may be nil
// for a private scratch.
//
//almost:hotpath
func (m *Model) LossBatchWith(sc *Scratch, b *Batch) float64 {
	k := b.Graphs()
	if k == 0 {
		return 0
	}
	if sc == nil {
		sc = NewScratch()
	}
	logits := m.forwardLogits(sc, b)
	var total float64
	for g := 0; g < b.Graphs(); g++ {
		total += softmaxCE(logits.Row(g), b.Labels[g])
	}
	sc.put(logits)
	return total / float64(b.Graphs())
}
