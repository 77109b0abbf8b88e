package gnn

import (
	"math/rand"
	"testing"

	"github.com/nyu-secml/almost/internal/nn"
)

// randGraph builds a connected random graph with zero-sprinkled features,
// deterministic in rng. Edges are appended in a fixed order so the
// neighbor lists have a well-defined sequence for identity checks.
func randGraph(n, f int, rng *rand.Rand, label int) *Graph {
	x := nn.NewMatrix(n, f)
	for i := range x.D {
		if rng.Intn(4) != 0 {
			x.D[i] = rng.NormFloat64()
		}
	}
	adj := make([][]int, n)
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}
	for e := 0; e < n/2; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}
	return &Graph{X: x, Adj: adj, Label: label}
}

// TestBatchForwardBitIdentity gates the core determinism claim of the
// batch seam: packed inference must reproduce the training forward on
// each graph alone exactly (==, not approximately) — probabilities,
// accuracy, and loss all derive from the same logits, through the same
// softmax arithmetic as nn.SoftmaxCE.
func TestBatchForwardBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const f = 7
	m := NewModel(Config{InDim: f, Hidden: 16, Layers: 2, LR: 0.01, BatchSize: 8}, rng)
	var gs []*Graph
	for i, n := range []int{1, 2, 5, 17, 3, 40, 9} {
		gs = append(gs, randGraph(n, f, rng, i%2))
	}
	b := PackInto(nil, gs)
	if b.Graphs() != len(gs) {
		t.Fatalf("Graphs() = %d, want %d", b.Graphs(), len(gs))
	}
	sc := NewScratch()
	probs := m.PredictProbBatchWith(sc, b, nil)
	var lossSum float64
	correct := 0
	for i, g := range gs {
		l, p, _ := nn.SoftmaxCE(m.forward(g).logits, []int{g.Label})
		if probs[i] != p.D[1] {
			t.Fatalf("graph %d: batched prob %v != training forward %v", i, probs[i], p.D[1])
		}
		lossSum += l
		if (p.D[1] >= 0.5) == (g.Label == 1) {
			correct++
		}
	}
	if got, want := m.AccuracyBatchWith(sc, b), float64(correct)/float64(len(gs)); got != want {
		t.Fatalf("batched accuracy %v != training forward %v", got, want)
	}
	if got, want := m.LossBatchWith(sc, b), lossSum/float64(len(gs)); got != want {
		t.Fatalf("batched loss %v != training forward %v", got, want)
	}
	// A nil scratch must produce the same numbers.
	want := append([]float64(nil), probs...)
	for i, p := range m.PredictProbBatchWith(nil, b, probs[:0]) {
		if p != want[i] {
			t.Fatalf("graph %d: nil-scratch batched prob diverges", i)
		}
	}
}

// TestBatchUnpackRoundTrip checks that Unpack returns exactly the packed
// graphs — feature bits, neighbor lists in order, labels — and that the
// result survives reuse of the batch.
func TestBatchUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const f = 5
	var gs []*Graph
	for i, n := range []int{1, 4, 11, 2} {
		gs = append(gs, randGraph(n, f, rng, i%2))
	}
	b := PackInto(nil, gs)
	got := b.Unpack()
	PackInto(b, []*Graph{randGraph(30, f, rng, 1)}) // reuse must not leak into got
	if len(got) != len(gs) {
		t.Fatalf("unpacked %d graphs, want %d", len(got), len(gs))
	}
	for gi, g := range gs {
		u := got[gi]
		if u.Label != g.Label || u.X.R != g.X.R || u.X.C != g.X.C || len(u.Adj) != len(g.Adj) {
			t.Fatalf("graph %d: shape or label differs", gi)
		}
		for i, v := range g.X.D {
			if u.X.D[i] != v {
				t.Fatalf("graph %d: feature %d differs", gi, i)
			}
		}
		for i, row := range g.Adj {
			if len(u.Adj[i]) != len(row) {
				t.Fatalf("graph %d row %d: %d neighbors, want %d", gi, i, len(u.Adj[i]), len(row))
			}
			for k, j := range row {
				if u.Adj[i][k] != j {
					t.Fatalf("graph %d row %d: neighbor order differs", gi, i)
				}
			}
		}
	}
}

// TestBatchForwardAllocs gates the steady state of the batched forward:
// with a warm scratch, a packed batch, and a reused result buffer, a
// full batched prediction pass performs zero allocations.
func TestBatchForwardAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const f = 7
	m := NewModel(Config{InDim: f, Hidden: 16, Layers: 2, LR: 0.01, BatchSize: 8}, rng)
	var gs []*Graph
	for i := 0; i < 12; i++ {
		gs = append(gs, randGraph(4+rng.Intn(20), f, rng, i%2))
	}
	b := PackInto(nil, gs)
	sc := NewScratch()
	var dst []float64
	dst = m.PredictProbBatchWith(sc, b, dst) // warm the pools
	allocs := testing.AllocsPerRun(50, func() {
		dst = m.PredictProbBatchWith(sc, b, dst[:0])
		m.AccuracyBatchWith(sc, b)
		m.LossBatchWith(sc, b)
	})
	if allocs != 0 {
		t.Fatalf("batched forward steady state allocates %.1f per run, want 0", allocs)
	}
	// Repacking the same graphs into a warm batch is also alloc-free.
	allocs = testing.AllocsPerRun(50, func() {
		PackInto(b, gs)
	})
	if allocs != 0 {
		t.Fatalf("warm PackInto allocates %.1f per run, want 0", allocs)
	}
}

// TestScratchPoolBounded gates the free-list bound: mixed-shape churn
// must not grow the pool past maxPool, and eviction must prefer keeping
// the largest backing arrays.
func TestScratchPoolBounded(t *testing.T) {
	sc := NewScratch()
	for i := 1; i <= 4*maxPool; i++ {
		sc.put(nn.NewMatrix(1, i))
	}
	if len(sc.pool) > maxPool {
		t.Fatalf("pool grew to %d entries, bound is %d", len(sc.pool), maxPool)
	}
	// The small early entries must have been evicted in favor of later,
	// larger ones: the minimum retained capacity exceeds maxPool.
	minCap := cap(sc.pool[0].D)
	for _, m := range sc.pool[1:] {
		if cap(m.D) < minCap {
			minCap = cap(m.D)
		}
	}
	if minCap <= maxPool {
		t.Fatalf("eviction kept a matrix of capacity %d; small entries should be evicted first", minCap)
	}
	// A smaller incoming matrix at the bound is dropped, not swapped in.
	sc.put(nn.NewMatrix(1, 1))
	for _, m := range sc.pool {
		if cap(m.D) == 1 {
			t.Fatal("bound pool admitted a smaller matrix by evicting a larger one")
		}
	}
}
