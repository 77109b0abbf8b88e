// Package omla implements the oracle-less GNN attack of Alrahis et al.
// ("OMLA: An Oracle-less Machine Learning-based Attack on Logic
// Locking", TCAS-II 2022), the primary adversary in the paper's
// evaluation.
//
// OMLA is self-referencing: the attacker takes the locked netlist under
// attack, RE-locks it with additional key gates whose bits the attacker
// chose (and therefore knows), re-synthesizes with the defender's known
// recipe, and extracts the localities of the added key gates as labeled
// training data. A GIN subgraph classifier trained on this data is then
// applied to the original key gates' localities to predict the real key.
package omla

import (
	"context"
	"math/rand"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/gnn"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/subgraph"
	"github.com/nyu-secml/almost/internal/synth"
)

// Config controls attack training.
type Config struct {
	Hops          int // locality radius
	Rounds        int // relock/resynthesize rounds
	GatesPerRound int // key gates added per round
	Epochs        int // training epochs
	Hidden        int // GNN hidden width
	Layers        int // GIN layers
	LR            float64
	Seed          int64
}

// DefaultConfig returns settings that train in a few seconds per circuit
// while preserving OMLA's architecture. The paper's full-size settings
// (1000 samples, 350 epochs) are reachable by raising Rounds and Epochs.
func DefaultConfig() Config {
	return Config{
		Hops:          2,
		Rounds:        8,
		GatesPerRound: 40,
		Epochs:        30,
		Hidden:        32,
		Layers:        2,
		LR:            0.01,
		Seed:          1,
	}
}

// GenerateData produces labeled localities by relocking the netlist under
// attack and re-synthesizing with the recipe returned by recipeFor for
// each round. This is the data pipeline shared by the baseline attacker
// models M^resyn2 and M^random and by ALMOST's adversarial training.
func GenerateData(locked *aig.AIG, recipeFor func(round int) synth.Recipe,
	rounds, gatesPerRound int, ext subgraph.Extractor, rng *rand.Rand) []*gnn.Graph {
	data, _ := GenerateDataCtx(context.Background(), locked, recipeFor,
		rounds, gatesPerRound, ext, rng)
	return data
}

// GenerateDataCtx is the cancellable variant of GenerateData: the context
// is checked before every relock/resynthesize round, and on cancellation
// the rounds completed so far are returned alongside ctx.Err(). Each
// round's localities are extracted as one packed batch and unpacked into
// training graphs.
func GenerateDataCtx(ctx context.Context, locked *aig.AIG, recipeFor func(round int) synth.Recipe,
	rounds, gatesPerRound int, ext subgraph.Extractor, rng *rand.Rand) ([]*gnn.Graph, error) {
	var data []*gnn.Graph
	var sc subgraph.Scratch
	var b gnn.Batch
	for r := 0; r < rounds; r++ {
		if err := ctx.Err(); err != nil {
			return data, err
		}
		relocked, keyOrder, bits := lock.Relock(locked, gatesPerRound, rng)
		resynth := recipeFor(r).Apply(relocked)
		kisAll := resynth.KeyInputIndices()
		kis := make([]int, len(keyOrder))
		for i, ko := range keyOrder {
			kis[i] = kisAll[ko]
		}
		data = append(data, ext.LabeledInto(&sc, resynth, kis, bits, &b).Unpack()...)
	}
	return data, nil
}

// Attack is a trained OMLA attacker.
type Attack struct {
	Model *gnn.Model
	Ext   subgraph.Extractor
}

// EpochFunc observes training progress: it is called after every
// completed epoch with the 0-based epoch index and the total epoch count.
type EpochFunc func(epoch, epochs int)

// Train builds an OMLA attacker against the given synthesized locked
// netlist, assuming the defender used recipe (the threat model of §II:
// "the attacks know the synthesis recipe used by the defender").
func Train(locked *aig.AIG, recipe synth.Recipe, cfg Config) *Attack {
	atk, _ := TrainCtx(context.Background(), locked, recipe, cfg, nil)
	return atk
}

// TrainCtx is the cancellable, observable variant of Train. The context
// is checked at every data-generation round and every training epoch; on
// cancellation the partially trained attacker is returned alongside
// ctx.Err(). onEpoch, when non-nil, is called after each epoch.
func TrainCtx(ctx context.Context, locked *aig.AIG, recipe synth.Recipe,
	cfg Config, onEpoch EpochFunc) (*Attack, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ext := subgraph.Extractor{Hops: cfg.Hops}
	data, err := GenerateDataCtx(ctx, locked, func(int) synth.Recipe { return recipe },
		cfg.Rounds, cfg.GatesPerRound, ext, rng)
	if err != nil {
		return &Attack{Ext: ext}, err
	}
	return TrainOnDataCtx(ctx, data, cfg, onEpoch)
}

// TrainOnData trains the GIN classifier on pre-generated localities.
func TrainOnData(data []*gnn.Graph, cfg Config) *Attack {
	atk, _ := TrainOnDataCtx(context.Background(), data, cfg, nil)
	return atk
}

// TrainOnDataCtx is the cancellable, observable variant of TrainOnData:
// the context is checked before every epoch, and on cancellation the
// partially trained attacker is returned alongside ctx.Err().
func TrainOnDataCtx(ctx context.Context, data []*gnn.Graph, cfg Config,
	onEpoch EpochFunc) (*Attack, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 7919))
	gcfg := gnn.Config{
		InDim:     subgraph.FeatureDim,
		Hidden:    cfg.Hidden,
		Layers:    cfg.Layers,
		LR:        cfg.LR,
		BatchSize: 32,
	}
	model := gnn.NewModel(gcfg, rng)
	atk := &Attack{Model: model, Ext: subgraph.Extractor{Hops: cfg.Hops}}
	for e := 0; e < cfg.Epochs; e++ {
		if err := ctx.Err(); err != nil {
			return atk, err
		}
		model.TrainEpoch(data, rng)
		if onEpoch != nil {
			onEpoch(e, cfg.Epochs)
		}
	}
	return atk, nil
}

// BatchScratch bundles the reusable state of one fused attack pass: the
// batched extraction scratch, the pooled inference matrices, the packed
// batch itself, and the probability buffer. One BatchScratch per engine
// worker; not safe for concurrent use. The zero value is ready.
type BatchScratch struct {
	Sub   subgraph.Scratch
	NN    gnn.Scratch
	batch gnn.Batch
	probs []float64
}

// predict runs the fused pass over every key gate of g, leaving P(bit=1)
// per key input in bs.probs. It returns bs, allocating one if nil.
//
//almost:hotpath
func (a *Attack) predict(bs *BatchScratch, g *aig.AIG) *BatchScratch {
	if bs == nil {
		bs = &BatchScratch{}
	}
	b := a.Ext.AllInto(&bs.Sub, g, &bs.batch)
	bs.probs = a.Model.PredictProbBatchWith(&bs.NN, b, bs.probs[:0])
	return bs
}

// PredictKeyBatchWith predicts every key bit of the netlist, in key-input
// order, in one fused pass: all key-gate localities are extracted into a
// single packed batch (sharing the fanout index and BFS scratch) and
// pushed through the GIN stack as blocked matmuls. bs may be nil for a
// private scratch; predictions are bit-for-bit identical for any
// scratch.
//
//almost:hotpath
func (a *Attack) PredictKeyBatchWith(bs *BatchScratch, g *aig.AIG) lock.Key {
	bs = a.predict(bs, g)
	key := make(lock.Key, len(bs.probs)) //almost:nolint hotpathalloc // the returned key is caller-owned by contract
	for i, p := range bs.probs {
		key[i] = p >= 0.5
	}
	return key
}

// AccuracyBatchWith attacks g through the fused batch seam and scores
// the prediction against the true key without allocating the
// intermediate key — the per-candidate evaluation of the Eq. 1 search,
// where the engine hands every worker its own scratch. bs may be nil for
// a private scratch.
//
//almost:hotpath
func (a *Attack) AccuracyBatchWith(bs *BatchScratch, g *aig.AIG, truth lock.Key) float64 {
	bs = a.predict(bs, g)
	// Fold exactly as lock.Accuracy does over a predicted key.
	if len(truth) == 0 {
		return 0
	}
	n := 0
	for i := range truth {
		if i < len(bs.probs) && (bs.probs[i] >= 0.5) == truth[i] {
			n++
		}
	}
	return float64(n) / float64(len(truth))
}

// AccuracyBatch attacks g and scores the prediction against the true key
// — the headline metric of Tables I and II.
func (a *Attack) AccuracyBatch(g *aig.AIG, truth lock.Key) float64 {
	return a.AccuracyBatchWith(nil, g, truth)
}

// AccuracyCtx is the one-shot attack entry: train a fresh attacker
// against the netlist (assumed synthesized with recipe) and score its
// key prediction against the true key. On cancellation it returns 0
// alongside the bare ctx.Err(); callers that want a framework-level
// cancellation error wrap it themselves.
func AccuracyCtx(ctx context.Context, locked *aig.AIG, recipe synth.Recipe,
	truth lock.Key, cfg Config, onEpoch EpochFunc) (float64, error) {
	atk, err := TrainCtx(ctx, locked, recipe, cfg, onEpoch)
	if err != nil {
		return 0, err
	}
	return atk.AccuracyBatch(locked, truth), nil
}
