package gnn

import (
	"math"
	"math/rand"
	"testing"

	"github.com/nyu-secml/almost/internal/nn"
)

// lineGraph builds a path graph with constant features and given label.
func lineGraph(n, f int, fill float64, label int) *Graph {
	x := nn.NewMatrix(n, f)
	for i := range x.D {
		x.D[i] = fill
	}
	adj := make([][]int, n)
	for i := 0; i+1 < n; i++ {
		adj[i] = append(adj[i], i+1)
		adj[i+1] = append(adj[i+1], i)
	}
	return &Graph{X: x, Adj: adj, Label: label}
}

func TestAggregate(t *testing.T) {
	x := nn.NewMatrix(3, 1)
	copy(x.D, []float64{1, 2, 3})
	adj := [][]int{{1}, {0, 2}, {1}}
	s := aggregate(x, adj, 0)
	want := []float64{1 + 2, 2 + 1 + 3, 3 + 2}
	for i, w := range want {
		if s.D[i] != w {
			t.Fatalf("agg[%d] = %v, want %v", i, s.D[i], w)
		}
	}
	// eps scales the self term.
	s2 := aggregate(x, adj, 1)
	if s2.D[0] != 2*1+2 {
		t.Fatalf("eps agg = %v", s2.D[0])
	}
}

func TestAggregateBackwardIsTranspose(t *testing.T) {
	// For sum aggregation over an undirected graph, backward(forward) uses
	// the same (symmetric) operator: check <A x, y> == <x, A y>.
	rng := rand.New(rand.NewSource(2))
	n, f := 5, 3
	adj := [][]int{{1, 2}, {0}, {0, 3}, {2, 4}, {3}}
	x := nn.NewMatrix(n, f)
	y := nn.NewMatrix(n, f)
	for i := range x.D {
		x.D[i] = rng.NormFloat64()
		y.D[i] = rng.NormFloat64()
	}
	ax := aggregate(x, adj, 0.5)
	aty := aggregateBackward(y, adj, 0.5)
	var lhs, rhs float64
	for i := range x.D {
		lhs += ax.D[i] * y.D[i]
		rhs += x.D[i] * aty.D[i]
	}
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("adjointness violated: %v vs %v", lhs, rhs)
	}
}

func TestModelGradientNumerically(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := Config{InDim: 3, Hidden: 4, Layers: 2, LR: 0.01, BatchSize: 4}
	m := NewModel(cfg, rng)
	g := lineGraph(4, 3, 0, 1)
	for i := range g.X.D {
		g.X.D[i] = rng.NormFloat64()
	}

	lossOf := func() float64 {
		c := m.forward(g)
		l, _, _ := nn.SoftmaxCE(c.logits, []int{g.Label})
		return l
	}
	// Analytic gradient for a few parameters of the first layer.
	m.opt.ZeroGrads()
	c := m.forward(g)
	_, _, dLogits := nn.SoftmaxCE(c.logits, []int{g.Label})
	m.backward(c, dLogits)

	p := m.layers[0].l1.W
	const h = 1e-6
	for _, i := range []int{0, 3, 7, 11} {
		orig := p.W.D[i]
		p.W.D[i] = orig + h
		lp := lossOf()
		p.W.D[i] = orig - h
		lm := lossOf()
		p.W.D[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-p.G.D[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("dW[%d]: numeric %v analytic %v", i, num, p.G.D[i])
		}
	}
	// And the head.
	hp := m.head2.W
	for _, i := range []int{0, 5} {
		orig := hp.W.D[i]
		hp.W.D[i] = orig + h
		lp := lossOf()
		hp.W.D[i] = orig - h
		lm := lossOf()
		hp.W.D[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-hp.G.D[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("head dW[%d]: numeric %v analytic %v", i, num, hp.G.D[i])
		}
	}
}

func TestModelLearnsSeparableGraphs(t *testing.T) {
	// Class 0: features near -1. Class 1: features near +1. Trivially
	// separable — training must reach high accuracy fast.
	rng := rand.New(rand.NewSource(4))
	var train, test []*Graph
	for i := 0; i < 60; i++ {
		label := i % 2
		fill := -1.0
		if label == 1 {
			fill = 1.0
		}
		g := lineGraph(3+rng.Intn(5), 4, fill, label)
		for j := range g.X.D {
			g.X.D[j] += rng.NormFloat64() * 0.2
		}
		if i < 40 {
			train = append(train, g)
		} else {
			test = append(test, g)
		}
	}
	m := NewModel(DefaultConfig(4), rng)
	for e := 0; e < 30; e++ {
		m.TrainEpoch(train, rng)
	}
	if acc := m.AccuracyBatchWith(nil, PackInto(nil, test)); acc < 0.9 {
		t.Fatalf("separable accuracy = %v", acc)
	}
}

func TestModelLearnsStructuralDifference(t *testing.T) {
	// Same features everywhere; label depends on topology (star vs path).
	// Only the message passing can distinguish them.
	rng := rand.New(rand.NewSource(5))
	star := func(n int) *Graph {
		g := lineGraph(n, 2, 1, 1)
		adj := make([][]int, n)
		for i := 1; i < n; i++ {
			adj[0] = append(adj[0], i)
			adj[i] = append(adj[i], 0)
		}
		g.Adj = adj
		return g
	}
	var train, test []*Graph
	for i := 0; i < 80; i++ {
		n := 5 + rng.Intn(4)
		var g *Graph
		if i%2 == 0 {
			g = lineGraph(n, 2, 1, 0)
		} else {
			g = star(n)
		}
		if i < 60 {
			train = append(train, g)
		} else {
			test = append(test, g)
		}
	}
	cfg := DefaultConfig(2)
	cfg.LR = 0.02
	m := NewModel(cfg, rng)
	for e := 0; e < 60; e++ {
		m.TrainEpoch(train, rng)
	}
	if acc := m.AccuracyBatchWith(nil, PackInto(nil, test)); acc < 0.85 {
		t.Fatalf("structural accuracy = %v", acc)
	}
}

func TestPredictProbInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := NewModel(DefaultConfig(3), rng)
	g := lineGraph(4, 3, 0.5, 0)
	b := PackInto(nil, []*Graph{g})
	p := m.PredictProbBatchWith(nil, b, nil)[0]
	if p < 0 || p > 1 || math.IsNaN(p) {
		t.Fatalf("prob = %v", p)
	}
	if (m.AccuracyBatchWith(nil, b) == 0) != (p >= 0.5) {
		t.Fatalf("accuracy inconsistent with the predicted probability")
	}
}

func TestTrainCallbackCanAugment(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewModel(DefaultConfig(2), rng)
	gs := []*Graph{lineGraph(3, 2, 1, 0), lineGraph(3, 2, -1, 1)}
	calls := 0
	m.Train(&gs, 5, rng, func(e int, loss float64) {
		calls++
		if e == 2 {
			gs = append(gs, lineGraph(4, 2, 0.5, 0))
		}
	})
	if calls != 5 {
		t.Fatalf("callback calls = %d", calls)
	}
	if len(gs) != 3 {
		t.Fatalf("augmentation lost: %d", len(gs))
	}
}

func TestDeterministicTraining(t *testing.T) {
	mk := func() float64 {
		rng := rand.New(rand.NewSource(9))
		m := NewModel(DefaultConfig(2), rng)
		var gs []*Graph
		for i := 0; i < 20; i++ {
			gs = append(gs, lineGraph(3+i%3, 2, float64(i%2)*2-1, i%2))
		}
		for e := 0; e < 5; e++ {
			m.TrainEpoch(gs, rng)
		}
		return m.LossBatchWith(nil, PackInto(nil, gs))
	}
	if mk() != mk() {
		t.Fatal("training not deterministic for fixed seed")
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	m := NewModel(DefaultConfig(8), rng)
	var gs []*Graph
	for i := 0; i < 100; i++ {
		g := lineGraph(20, 8, 0, i%2)
		for j := range g.X.D {
			g.X.D[j] = rng.NormFloat64()
		}
		gs = append(gs, g)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainEpoch(gs, rng)
	}
}
