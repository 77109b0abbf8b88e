// Package subgraph extracts key-gate localities from locked AIGs and
// featurizes them as graphs for the GNN attack models — the "subgraph
// extraction from key-gates" step of OMLA and of Algorithm 1.
//
// For every key input, the k-hop undirected neighborhood of the key
// input node is extracted (key inputs are identifiable in any locked
// netlist, so this is available to the attacker). Nodes carry structural
// features only: kind, fanin edge polarities, fanout degree, level, and
// distance from the key input. Nothing about the key bit leaks into the
// features; the bit is the label to be learned.
//
// Extraction packs every requested locality of a netlist into one
// gnn.Batch (Extractor.ForKeyInputsInto and its AllInto/LabeledInto
// forms); training unpacks that batch into standalone graphs.
package subgraph

// FeatureDim is the width of the per-node feature vector.
const FeatureDim = 11

// Feature indices.
const (
	fConst = iota
	fInput
	fKeyInput
	fAnd
	fFanin0Neg
	fFanin1Neg
	fFanout
	fLevel
	fIsPO
	fDist
	fIsSeed
)

// Extractor configures locality extraction.
type Extractor struct {
	Hops int // neighborhood radius; the paper's localities use small k
}

// DefaultExtractor returns the 2-hop extractor used by default.
func DefaultExtractor() Extractor { return Extractor{Hops: 2} }
