// Package gnn implements the GIN-style (Graph Isomorphism Network)
// subgraph classifier used by the OMLA attack: message-passing layers
// with sum aggregation followed by a graph-level readout and an MLP
// head. Backpropagation is implemented manually on top of internal/nn.
//
// A forward pass for one graph computes, per layer k:
//
//	S^k = (1+eps)·H^k + A·H^k        (A = adjacency, sum over neighbors)
//	H^{k+1} = ReLU(W2·ReLU(W1·S^k))
//
// and the readout is the mean of the final node embeddings, classified
// by a two-layer head into {key-bit 0, key-bit 1}.
package gnn

import (
	"math"
	"math/rand"

	"github.com/nyu-secml/almost/internal/nn"
)

// Graph is one training/evaluation sample: a featurized subgraph with a
// binary label (the key bit).
type Graph struct {
	X     *nn.Matrix // n×f node features
	Adj   [][]int    // undirected neighbor lists, len n
	Label int        // 0 or 1
}

// Config sets the network shape and training hyper-parameters.
type Config struct {
	InDim     int
	Hidden    int
	Layers    int     // number of GIN layers
	Eps       float64 // GIN epsilon (fixed, not learned)
	LR        float64
	BatchSize int
}

// DefaultConfig mirrors OMLA's architecture at a size that trains in
// seconds on CPU: 2 GIN layers, hidden width 16.
func DefaultConfig(inDim int) Config {
	return Config{InDim: inDim, Hidden: 16, Layers: 2, Eps: 0, LR: 0.01, BatchSize: 32}
}

type ginLayer struct {
	l1, l2 *nn.Linear
}

// Model is a GIN subgraph classifier.
type Model struct {
	cfg    Config
	layers []*ginLayer
	head1  *nn.Linear
	head2  *nn.Linear
	opt    *nn.Adam
}

// NewModel builds a He-initialized model.
func NewModel(cfg Config, rng *rand.Rand) *Model {
	m := &Model{cfg: cfg}
	in := cfg.InDim
	for k := 0; k < cfg.Layers; k++ {
		m.layers = append(m.layers, &ginLayer{
			l1: nn.NewLinear(in, cfg.Hidden, rng),
			l2: nn.NewLinear(cfg.Hidden, cfg.Hidden, rng),
		})
		in = cfg.Hidden
	}
	m.head1 = nn.NewLinear(in, cfg.Hidden, rng)
	m.head2 = nn.NewLinear(cfg.Hidden, 2, rng)
	var params []*nn.Param
	for _, l := range m.layers {
		params = append(params, l.l1.Params()...)
		params = append(params, l.l2.Params()...)
	}
	params = append(params, m.head1.Params()...)
	params = append(params, m.head2.Params()...)
	m.opt = nn.NewAdam(params, cfg.LR)
	return m
}

// aggregate computes (1+eps)H + A·H.
func aggregate(h *nn.Matrix, adj [][]int, eps float64) *nn.Matrix {
	return aggregateInto(nn.NewMatrix(h.R, h.C), h, adj, eps)
}

// aggregateInto computes (1+eps)H + A·H into dst (same shape as h, fully
// overwritten), returning dst.
//
//almost:hotpath
func aggregateInto(dst, h *nn.Matrix, adj [][]int, eps float64) *nn.Matrix {
	for i := 0; i < h.R; i++ {
		sr := dst.Row(i)
		hr := h.Row(i)
		for j := range sr {
			sr[j] = (1 + eps) * hr[j]
		}
		for _, nb := range adj[i] {
			nr := h.Row(nb)
			for j := range sr {
				sr[j] += nr[j]
			}
		}
	}
	return dst
}

// Scratch pools the intermediate matrices of inference-only forward
// passes, so evaluating a trained model inside the recipe-search hot loop
// stops allocating per candidate. A scratch is not safe for concurrent
// use; the engine keeps one per worker (Scratch.Aux). The zero value is
// ready.
type Scratch struct {
	pool []*nn.Matrix
}

// NewScratch returns an empty scratch.
func NewScratch() *Scratch { return &Scratch{} }

// mat checks a matrix of shape r×c out of the pool (contents undefined).
func (s *Scratch) mat(r, c int) *nn.Matrix {
	need := r * c
	for i := len(s.pool) - 1; i >= 0; i-- {
		m := s.pool[i]
		if cap(m.D) >= need {
			s.pool[i] = s.pool[len(s.pool)-1]
			s.pool = s.pool[:len(s.pool)-1]
			m.R, m.C = r, c
			m.D = m.D[:need]
			return m
		}
	}
	return nn.NewMatrix(r, c)
}

// maxPool bounds the Scratch free-list. A forward pass holds at most a
// handful of intermediates, so a healthy pool stays far below the bound;
// the bound exists because mixed matrix shapes (batches of very
// different sizes) would otherwise ratchet the list up without limit —
// every undersized entry skipped by mat is dead weight that still pins
// its backing array.
const maxPool = 32

// put returns a matrix to the pool. At the bound it keeps the pool's
// total capacity most useful: the smallest-capacity entry is evicted in
// favor of a larger incoming matrix, and a smaller incoming matrix is
// simply dropped for the garbage collector.
func (s *Scratch) put(m *nn.Matrix) {
	if len(s.pool) < maxPool {
		s.pool = append(s.pool, m)
		return
	}
	mi := 0
	for i, p := range s.pool[1:] {
		if cap(p.D) < cap(s.pool[mi].D) {
			mi = i + 1
		}
	}
	if cap(s.pool[mi].D) < cap(m.D) {
		s.pool[mi] = m
	}
}

// softmaxProb1 returns P(label=1) from a logits row with the exact
// arithmetic of nn.SoftmaxCE (max-shift, exp in index order, single
// division).
func softmaxProb1(row []float64) float64 {
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum, p1 float64
	for j, v := range row {
		e := math.Exp(v - maxv)
		if j == 1 {
			p1 = e
		}
		sum += e
	}
	return p1 / sum
}

// softmaxCE returns the cross-entropy of a logits row against label,
// matching nn.SoftmaxCE bit for bit for a single-row batch.
func softmaxCE(row []float64, label int) float64 {
	maxv := row[0]
	for _, v := range row[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum, py float64
	for j, v := range row {
		e := math.Exp(v - maxv)
		if j == label {
			py = e
		}
		sum += e
	}
	py /= sum
	return -math.Log(math.Max(py, 1e-12))
}

// aggregateBackward propagates dS back to dH.
func aggregateBackward(ds *nn.Matrix, adj [][]int, eps float64) *nn.Matrix {
	dh := nn.NewMatrix(ds.R, ds.C)
	for i := 0; i < ds.R; i++ {
		dr := dh.Row(i)
		sr := ds.Row(i)
		for j := range dr {
			dr[j] += (1 + eps) * sr[j]
		}
		// Sum aggregation: node i's embedding fed every neighbor's S.
		for _, nb := range adj[i] {
			nr := ds.Row(nb)
			for j := range dr {
				dr[j] += nr[j]
			}
		}
	}
	return dh
}

type forwardCache struct {
	g *Graph
	// Per layer: input H, s, a1 (post-ReLU of l1), h (post-ReLU of l2).
	hs, ss, a1s, outs []*nn.Matrix
	pooled            *nn.Matrix
	headHidden        *nn.Matrix
	logits            *nn.Matrix
}

// forward runs the network on one graph, caching activations.
func (m *Model) forward(g *Graph) *forwardCache {
	c := &forwardCache{g: g}
	h := g.X
	for _, l := range m.layers {
		s := aggregate(h, g.Adj, m.cfg.Eps)
		a1 := nn.ReLU(l.l1.Forward(s))
		out := nn.ReLU(l.l2.Forward(a1))
		c.hs = append(c.hs, h)
		c.ss = append(c.ss, s)
		c.a1s = append(c.a1s, a1)
		c.outs = append(c.outs, out)
		h = out
	}
	// Mean readout.
	pooled := nn.NewMatrix(1, h.C)
	for i := 0; i < h.R; i++ {
		hr := h.Row(i)
		for j := range hr {
			pooled.D[j] += hr[j]
		}
	}
	for j := range pooled.D {
		pooled.D[j] /= float64(h.R)
	}
	c.pooled = pooled
	c.headHidden = nn.ReLU(m.head1.Forward(pooled))
	c.logits = m.head2.Forward(c.headHidden)
	return c
}

// backward accumulates gradients given dLogits for one cached forward.
func (m *Model) backward(c *forwardCache, dLogits *nn.Matrix) {
	dHid := m.head2.Backward(c.headHidden, dLogits)
	dHid = nn.ReLUBackward(c.headHidden, dHid)
	dPooled := m.head1.Backward(c.pooled, dHid)
	// Un-pool: distribute mean gradient to every node.
	last := c.outs[len(c.outs)-1]
	dh := nn.NewMatrix(last.R, last.C)
	for i := 0; i < last.R; i++ {
		dr := dh.Row(i)
		for j := range dr {
			dr[j] = dPooled.D[j] / float64(last.R)
		}
	}
	for k := len(m.layers) - 1; k >= 0; k-- {
		l := m.layers[k]
		dh = nn.ReLUBackward(c.outs[k], dh)
		da1 := l.l2.Backward(c.a1s[k], dh)
		da1 = nn.ReLUBackward(c.a1s[k], da1)
		ds := l.l1.Backward(c.ss[k], da1)
		dh = aggregateBackward(ds, c.g.Adj, m.cfg.Eps)
	}
}

// TrainEpoch runs one epoch of mini-batch Adam over the training set in
// a shuffled order drawn from rng, returning the mean loss.
func (m *Model) TrainEpoch(gs []*Graph, rng *rand.Rand) float64 {
	perm := rng.Perm(len(gs))
	var total float64
	bs := m.cfg.BatchSize
	if bs <= 0 {
		bs = 32
	}
	for start := 0; start < len(perm); start += bs {
		end := start + bs
		if end > len(perm) {
			end = len(perm)
		}
		m.opt.ZeroGrads()
		for _, pi := range perm[start:end] {
			g := gs[pi]
			c := m.forward(g)
			l, _, dLogits := nn.SoftmaxCE(c.logits, []int{g.Label})
			total += l
			// Scale gradient by batch share.
			for i := range dLogits.D {
				dLogits.D[i] /= float64(end - start)
			}
			m.backward(c, dLogits)
		}
		m.opt.Step()
	}
	return total / float64(len(gs))
}

// Train runs epochs of TrainEpoch, with an optional callback invoked
// after each epoch (epoch index, training loss); the callback may mutate
// the training slice (the adversarial augmentation hook).
func (m *Model) Train(gs *[]*Graph, epochs int, rng *rand.Rand, after func(epoch int, loss float64)) {
	for e := 0; e < epochs; e++ {
		loss := m.TrainEpoch(*gs, rng)
		if after != nil {
			after(e, loss)
		}
	}
}
