package subgraph

import (
	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/gnn"
	"github.com/nyu-secml/almost/internal/nn"
)

// referenceLocality is the straightforward map-based extraction of the
// locality of the key input with input index ki: the specification the
// packed ForKeyInputsInto must reproduce bit for bit (node order,
// features, and neighbor append order). The returned graph's Label is
// left 0.
func referenceLocality(e Extractor, g *aig.AIG, ki int, fanouts [][]int, foCounts []int) *gnn.Graph {
	seed := g.Input(ki).Node()
	ids := g.KHopNeighborhood(seed, e.Hops, fanouts)
	idx := make(map[int]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	// BFS distances from seed within the subgraph.
	dist := map[int]int{seed: 0}
	frontier := []int{seed}
	for d := 0; d < e.Hops; d++ {
		var next []int
		for _, id := range frontier {
			var adj []int
			if g.IsAnd(id) {
				f0, f1 := g.Fanins(id)
				adj = append(adj, f0.Node(), f1.Node())
			}
			adj = append(adj, fanouts[id]...)
			for _, a := range adj {
				if _, seen := dist[a]; !seen {
					if _, in := idx[a]; in {
						dist[a] = d + 1
						next = append(next, a)
					}
				}
			}
		}
		frontier = next
	}

	maxLevel := g.NumLevels()
	if maxLevel == 0 {
		maxLevel = 1
	}
	x := nn.NewMatrix(len(ids), FeatureDim)
	adj := make([][]int, len(ids))
	poNodes := map[int]bool{}
	for i := 0; i < g.NumOutputs(); i++ {
		poNodes[g.Output(i).Node()] = true
	}
	for i, id := range ids {
		row := x.Row(i)
		switch {
		case g.IsConst(id):
			row[fConst] = 1
		case g.IsInput(id):
			if ii := g.InputIndexOfNode(id); ii >= 0 && g.InputIsKey(ii) {
				row[fKeyInput] = 1
			} else {
				row[fInput] = 1
			}
		default:
			row[fAnd] = 1
			f0, f1 := g.Fanins(id)
			if f0.Neg() {
				row[fFanin0Neg] = 1
			}
			if f1.Neg() {
				row[fFanin1Neg] = 1
			}
			// Undirected edges to fanins inside the subgraph.
			for _, f := range []aig.Lit{f0, f1} {
				if j, ok := idx[f.Node()]; ok {
					adj[i] = append(adj[i], j)
					adj[j] = append(adj[j], i)
				}
			}
		}
		fo := foCounts[id]
		if fo > 8 {
			fo = 8
		}
		row[fFanout] = float64(fo) / 8
		row[fLevel] = float64(g.Level(id)) / float64(maxLevel)
		if poNodes[id] {
			row[fIsPO] = 1
		}
		row[fDist] = float64(dist[id]) / float64(max(e.Hops, 1))
		if id == seed {
			row[fIsSeed] = 1
		}
	}
	return &gnn.Graph{X: x, Adj: adj}
}

// referenceLocalities extracts the reference locality of every key input
// in kis, labeled from bits (parallel to kis; nil leaves labels 0).
func referenceLocalities(e Extractor, g *aig.AIG, kis []int, bits []bool) []*gnn.Graph {
	fanouts := g.Fanouts()
	foCounts := g.FanoutCounts()
	out := make([]*gnn.Graph, len(kis))
	for i, ki := range kis {
		out[i] = referenceLocality(e, g, ki, fanouts, foCounts)
		if bits != nil && bits[i] {
			out[i].Label = 1
		}
	}
	return out
}
