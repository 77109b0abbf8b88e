package subgraph

import (
	"slices"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/gnn"
)

// Scratch holds the reusable state of batched locality extraction: the
// netlist-wide indices derived once per extraction (CSR fanout index,
// fanout counts, PO marks) and the per-seed BFS state (epoch-stamped
// visit marks instead of per-call maps). A scratch is not safe for
// concurrent use; the engine keeps one per worker. The zero value is
// ready to use.
type Scratch struct {
	// Netlist-wide state, rebuilt once per ForKeyInputsInto call and
	// shared across every key gate of that netlist.
	foOff   []int32 // CSR fanout offsets, len nodes+1
	foEdges []int32 // CSR fanout targets (AND ids, ascending per node)
	foCnt   []int   // total fanout counts (AND + output references)
	poMark  []bool  // node drives a primary output
	kis     []int   // key-input index buffer for AllInto/LabeledInto

	// Per-seed BFS state, epoch-stamped so no per-seed clearing is
	// needed: an entry is valid only when mark[id] == epoch.
	mark  []int32
	dist  []int32 // BFS distance at mark's epoch
	local []int32 // batch-local feature row at mark's epoch
	queue []int32
	epoch int32

	// Packed per-seed results of the BFS pass: seed s owns
	// idsAll[seedOff[s]:seedOff[s+1]] (sorted node IDs) and the parallel
	// distAll entries.
	idsAll  []int32
	distAll []int32
	seedOff []int

	deg []int // per-batch-row degree counts for Batch.InitAdj
}

// grow sizes the netlist-wide buffers for n nodes and resets the epoch
// stamps when the mark buffer is replaced.
//
//almost:hotpath
func (s *Scratch) grow(n int) {
	if cap(s.mark) < n {
		s.mark = make([]int32, n)
		s.dist = make([]int32, n)
		s.local = make([]int32, n)
		s.queue = make([]int32, 0, n)
		s.epoch = 0
	}
	s.mark = s.mark[:n]
	s.dist = s.dist[:n]
	s.local = s.local[:n]
	if cap(s.foOff) < n+1 {
		s.foOff = make([]int32, n+1)
	}
	s.foOff = s.foOff[:n+1]
	if cap(s.poMark) < n {
		s.poMark = make([]bool, n)
	}
	s.poMark = s.poMark[:n]
	for i := range s.poMark {
		s.poMark[i] = false
	}
}

// buildFanouts fills the CSR fanout index with exactly the lists
// aig.Fanouts builds (per node: referencing AND ids ascending, one entry
// even when both fanins coincide), without the per-node slice headers.
//
//almost:hotpath
func (s *Scratch) buildFanouts(g *aig.AIG) {
	n := g.NumNodes()
	for i := range s.foOff {
		s.foOff[i] = 0
	}
	total := 0
	for id := 0; id < n; id++ {
		if !g.IsAnd(id) {
			continue
		}
		f0, f1 := g.Fanins(id)
		s.foOff[f0.Node()+1]++
		total++
		if f1.Node() != f0.Node() {
			s.foOff[f1.Node()+1]++
			total++
		}
	}
	for i := 1; i <= n; i++ {
		s.foOff[i] += s.foOff[i-1]
	}
	if cap(s.foEdges) < total {
		s.foEdges = make([]int32, total)
	}
	s.foEdges = s.foEdges[:total]
	// Fill via a moving cursor per node; restore offsets afterwards by
	// shifting (cursor of node i ends where node i+1 starts).
	for id := 0; id < n; id++ {
		if !g.IsAnd(id) {
			continue
		}
		f0, f1 := g.Fanins(id)
		s.foEdges[s.foOff[f0.Node()]] = int32(id)
		s.foOff[f0.Node()]++
		if f1.Node() != f0.Node() {
			s.foEdges[s.foOff[f1.Node()]] = int32(id)
			s.foOff[f1.Node()]++
		}
	}
	copy(s.foOff[1:], s.foOff[:n])
	s.foOff[0] = 0
}

// fanoutsOf returns the CSR fanout list of node id.
func (s *Scratch) fanoutsOf(id int) []int32 {
	return s.foEdges[s.foOff[id]:s.foOff[id+1]]
}

// bfs runs the k-hop BFS from seed, appending the visited node IDs (in
// visit order) to idsAll with distances stamped into s.dist. It returns
// the extended idsAll. The visited set and distances equal
// aig.KHopNeighborhood's: a shortest path to any node within k hops runs
// entirely through nodes within k hops, so restricting later feature
// distances to the subgraph changes nothing.
//
//almost:hotpath
func (s *Scratch) bfs(g *aig.AIG, seed, hops int) {
	s.epoch++
	epoch := s.epoch
	s.mark[seed] = epoch
	s.dist[seed] = 0
	//almost:nolint hotpathalloc // queue capacity is reserved for the whole node count in grow
	s.queue = append(s.queue[:0], int32(seed))
	//almost:nolint hotpathalloc // amortized slab growth; steady-state capacity is reached after one extraction
	s.idsAll = append(s.idsAll, int32(seed))
	for qi := 0; qi < len(s.queue); qi++ {
		id := int(s.queue[qi])
		d := s.dist[id]
		if int(d) >= hops {
			continue
		}
		//almost:nolint hotpathalloc // non-escaping local closure; stack-allocated
		visit := func(a int) {
			if s.mark[a] != epoch {
				s.mark[a] = epoch
				s.dist[a] = d + 1
				s.queue = append(s.queue, int32(a))
				s.idsAll = append(s.idsAll, int32(a))
			}
		}
		if g.IsAnd(id) {
			f0, f1 := g.Fanins(id)
			visit(f0.Node())
			visit(f1.Node())
		}
		for _, a := range s.fanoutsOf(id) {
			visit(int(a))
		}
	}
}

// ForKeyInputsInto extracts the localities of the key inputs at input
// indices kis into b as one packed batch (graph order = kis order),
// reusing sc across calls and sharing the fanout index, BFS scratch, and
// feature buffers across all key gates of the netlist. It returns b,
// allocating one if nil. Labels are zeroed; callers attach them.
//
// Each packed graph is the k-hop locality of its key input with nodes in
// ascending ID order. Neighbor lists are filled by visiting nodes in
// that order, fanin 0 before fanin 1, each undirected edge appended
// forward then back; the aggregation sums neighbors in exactly this
// order, so it is part of the result. The tests pin it against a
// map-based per-key-gate reference extractor.
//
// The returned batch aliases sc-independent storage owned by b itself
// and is valid until b's next reuse; sc only carries the extraction
// indices.
//
//almost:hotpath
func (e Extractor) ForKeyInputsInto(sc *Scratch, g *aig.AIG, kis []int, b *gnn.Batch) *gnn.Batch {
	if b == nil {
		b = &gnn.Batch{}
	}
	n := g.NumNodes()
	sc.grow(n)
	sc.buildFanouts(g)
	sc.foCnt = g.FanoutCountsInto(sc.foCnt)
	for i := 0; i < g.NumOutputs(); i++ {
		sc.poMark[g.Output(i).Node()] = true
	}

	// Pass A: one BFS per seed; collect the sorted ID list and snapshot
	// each node's distance (still stamped from that seed's BFS) into the
	// parallel distAll slab before the next seed overwrites the stamps.
	sc.idsAll = sc.idsAll[:0]
	sc.distAll = sc.distAll[:0]
	if cap(sc.seedOff) < len(kis)+1 {
		sc.seedOff = make([]int, len(kis)+1)
	}
	sc.seedOff = sc.seedOff[:len(kis)+1]
	for si, ki := range kis {
		off := len(sc.idsAll)
		sc.seedOff[si] = off
		sc.bfs(g, g.Input(ki).Node(), e.Hops)
		slices.Sort(sc.idsAll[off:])
		for _, id := range sc.idsAll[off:] {
			//almost:nolint hotpathalloc // amortized slab growth; steady-state capacity is reached after one extraction
			sc.distAll = append(sc.distAll, sc.dist[id])
		}
	}
	sc.seedOff[len(kis)] = len(sc.idsAll)
	total := len(sc.idsAll)

	maxLevel := g.NumLevels()
	if maxLevel == 0 {
		maxLevel = 1
	}
	b.Reset(total, FeatureDim, len(kis))

	// Pass B: stamp batch-local rows per seed and count adjacency
	// degrees in Pass C's visit order.
	if cap(sc.deg) < total {
		sc.deg = make([]int, total)
	}
	sc.deg = sc.deg[:total]
	for i := range sc.deg {
		sc.deg[i] = 0
	}
	for si := range kis {
		lo, hi := sc.seedOff[si], sc.seedOff[si+1]
		sc.epoch++
		for i := lo; i < hi; i++ {
			id := sc.idsAll[i]
			sc.mark[id] = sc.epoch
			sc.local[id] = int32(i)
		}
		for i := lo; i < hi; i++ {
			id := int(sc.idsAll[i])
			if !g.IsAnd(id) {
				continue
			}
			f0, f1 := g.Fanins(id)
			if sc.mark[f0.Node()] == sc.epoch {
				sc.deg[i]++
				sc.deg[sc.local[f0.Node()]]++
			}
			if sc.mark[f1.Node()] == sc.epoch {
				sc.deg[i]++
				sc.deg[sc.local[f1.Node()]]++
			}
		}
	}
	b.InitAdj(sc.deg)

	// Pass C: re-stamp per seed, then fill features and adjacency —
	// ascending node ID, f0 before f1, forward edge before back edge.
	for si, ki := range kis {
		seed := g.Input(ki).Node()
		lo, hi := sc.seedOff[si], sc.seedOff[si+1]
		b.Off[si] = lo
		sc.epoch++
		for i := lo; i < hi; i++ {
			id := sc.idsAll[i]
			sc.mark[id] = sc.epoch
			sc.local[id] = int32(i)
		}
		for i := lo; i < hi; i++ {
			id := int(sc.idsAll[i])
			row := b.X.Row(i)
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
				if j := f0.Node(); sc.mark[j] == sc.epoch {
					b.AddEdge(i, int(sc.local[j]))
					b.AddEdge(int(sc.local[j]), i)
				}
				if j := f1.Node(); sc.mark[j] == sc.epoch {
					b.AddEdge(i, int(sc.local[j]))
					b.AddEdge(int(sc.local[j]), i)
				}
			}
			fo := sc.foCnt[id]
			if fo > 8 {
				fo = 8
			}
			row[fFanout] = float64(fo) / 8
			row[fLevel] = float64(g.Level(id)) / float64(maxLevel)
			if sc.poMark[id] {
				row[fIsPO] = 1
			}
			row[fDist] = float64(sc.distAll[i]) / float64(max(e.Hops, 1))
			if id == seed {
				row[fIsSeed] = 1
			}
		}
	}
	b.Off[len(kis)] = total
	return b
}

// AllInto extracts one locality per key input of g, in key-input order,
// into b. It returns b, allocating one if nil.
//
//almost:hotpath
func (e Extractor) AllInto(sc *Scratch, g *aig.AIG, b *gnn.Batch) *gnn.Batch {
	sc.kis = g.KeyInputIndicesInto(sc.kis)
	return e.ForKeyInputsInto(sc, g, sc.kis, b)
}

// LabeledInto extracts localities for key inputs kis into b and attaches
// labels from bits (parallel to kis). It returns b, allocating one if
// nil.
func (e Extractor) LabeledInto(sc *Scratch, g *aig.AIG, kis []int, bits []bool, b *gnn.Batch) *gnn.Batch {
	b = e.ForKeyInputsInto(sc, g, kis, b)
	for i, bit := range bits {
		if bit {
			b.Labels[i] = 1
		}
	}
	return b
}
