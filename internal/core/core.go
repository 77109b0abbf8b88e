// Package core implements the ALMOST framework — the paper's primary
// contribution: security-aware synthesis-recipe generation that makes
// RLL-locked netlists resilient to oracle-less ML attacks.
//
// It combines three pieces:
//
//  1. Proxy attacker models (§III-B / Table I): M^resyn2 (trained on the
//     baseline recipe), M^random (trained on random recipes), and the
//     adversarially trained M* of Algorithm 1, which interleaves GIN
//     training with simulated-annealing searches for recipes whose
//     localities the current model mispredicts (Eq. 3), augmenting the
//     training set with those adversarial samples (Eq. 6).
//  2. Security-aware SA recipe search (Eq. 1 / §III-C): black-box
//     simulated annealing over fixed-length recipes minimizing
//     |Acc − 0.5| as estimated by a proxy model.
//  3. The end-to-end secure-synthesis pipeline: lock with plain RLL,
//     train M*, search for S_ALMOST, and emit the hardened netlist.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/anneal"
	"github.com/nyu-secml/almost/internal/attack/omla"
	"github.com/nyu-secml/almost/internal/engine"
	"github.com/nyu-secml/almost/internal/gnn"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/subgraph"
	"github.com/nyu-secml/almost/internal/synth"
)

// ModelKind selects the proxy-attacker training regime (Table I).
type ModelKind int

// Proxy model variants.
const (
	ModelResyn2      ModelKind = iota // M^resyn2: defender-baseline recipe
	ModelRandom                       // M^random: fresh random recipe per round
	ModelAdversarial                  // M*: Algorithm 1 adversarial training
)

// String names the variant as in the paper.
func (k ModelKind) String() string {
	switch k {
	case ModelResyn2:
		return "M^resyn2"
	case ModelRandom:
		return "M^random"
	case ModelAdversarial:
		return "M*"
	}
	return fmt.Sprintf("ModelKind(%d)", int(k))
}

// Config collects every knob of the framework. The zero value is not
// usable — start from DefaultConfig or PaperConfig; Validate reports
// what is wrong with a hand-built configuration.
type Config struct {
	// Attack holds the shared GNN/extraction settings.
	Attack omla.Config
	// AdvPeriod is R in Algorithm 1: adversarial augmentation happens
	// every AdvPeriod epochs.
	AdvPeriod int
	// AdvGates is the number of relock gates (= samples) added per
	// augmentation (the paper adds 200).
	AdvGates int
	// AdvSAIters bounds the SA search for each adversarial recipe.
	AdvSAIters int
	// SA is the schedule for the Eq. 1 recipe search.
	SA anneal.Config
	// RecipeLen is L (the paper fixes L = 10).
	RecipeLen int
	// SAProposals is K, the number of neighbor recipes proposed and
	// evaluated per SA iteration by the concurrent evaluation engine.
	// K shapes the search trajectory (values <= 1 propose one neighbor);
	// Parallelism does not.
	SAProposals int
	// Parallelism is the evaluation worker count (the CLI's --jobs): how
	// many recipe candidates are synthesized and attacked concurrently.
	// <= 0 selects runtime.NumCPU(). Results are bit-for-bit identical
	// for any value; only wall-clock changes.
	Parallelism int
	Seed        int64

	// Lockers names the registered locking schemes SecureSynthesisCtx
	// chains, in order, to lock the input design (the CLI's -locker).
	// The key budget is split evenly across the chain. Nil or empty
	// selects plain RLL ("rll"), the paper's scheme.
	Lockers []string
	// EvalAttacks names the registered attacks the Eq. 1 recipe search
	// optimizes against (the CLI's -attacks). Nil or empty selects the
	// paper's objective: the OMLA proxy alone. With several attacks the
	// search minimizes an ensemble objective — per candidate recipe,
	// every named attack is evaluated on the synthesized netlist
	// (concurrently, on the evaluation engine) and the per-attack
	// deviations |Acc_a − 0.5| are reduced per EnsembleReduce, in
	// registration order, so the trajectory is deterministic for any
	// Parallelism and any order this list is written in. The "omla"
	// entry is estimated by the trained proxy (Fig. 2's tractable
	// "alternative flow"); every other name runs the registered attack
	// itself.
	EvalAttacks []string
	// EnsembleReduce selects how per-attack deviations combine into the
	// search energy: ReduceWorst (default) guards the worst case,
	// ReduceMean the average.
	EnsembleReduce EnsembleReduce
}

// EnsembleReduce selects the reduction of per-attack deviations
// |Acc_a − 0.5| into the scalar the Eq. 1 search minimizes.
type EnsembleReduce int

// Ensemble reductions.
const (
	// ReduceWorst minimizes the maximum deviation: the hardened netlist
	// is only as strong as its weakest spot, so guard the worst case.
	ReduceWorst EnsembleReduce = iota
	// ReduceMean minimizes the mean deviation across the ensemble.
	ReduceMean
)

// String names the reduction.
func (m EnsembleReduce) String() string {
	switch m {
	case ReduceWorst:
		return "worst"
	case ReduceMean:
		return "mean"
	}
	return fmt.Sprintf("EnsembleReduce(%d)", int(m))
}

// DefaultConfig returns laptop-scale settings that preserve the paper's
// structure (Alg. 1 cadence, SA schedule shape, L = 10).
func DefaultConfig() Config {
	return Config{
		Attack:      omla.DefaultConfig(),
		AdvPeriod:   10,
		AdvGates:    40,
		AdvSAIters:  12,
		SA:          anneal.Config{Iterations: 40, InitTemp: 120, Acceptance: 1.8},
		RecipeLen:   synth.RecipeLength,
		SAProposals: 4,
		Parallelism: 0, // auto: runtime.NumCPU()
		Seed:        1,
	}
}

// PaperConfig returns the full-size settings reported in §IV-A: 1000
// initial samples, 350 epochs, augmentation of 200 samples every 50
// epochs, SA for 100 iterations with T0 = 120 and acceptance = 1.8.
func PaperConfig() Config {
	cfg := DefaultConfig()
	cfg.Attack.Rounds = 25 // 25 rounds × 40 gates = 1000 samples
	cfg.Attack.GatesPerRound = 40
	cfg.Attack.Epochs = 350
	cfg.AdvPeriod = 50
	cfg.AdvGates = 200
	cfg.AdvSAIters = 20
	cfg.SA = anneal.PaperConfig()
	return cfg
}

// Proxy is a trained accuracy evaluator: a proxy for running the real
// attack at every SA iteration (Fig. 2's "alternative flow").
type Proxy struct {
	Kind   ModelKind
	Attack *omla.Attack
}

// epochFunc adapts proxy-training epochs to PhaseTrain events. samples
// reports the current training-set size, re-read every epoch because
// Algorithm 1 grows the set.
func (o *runOptions) epochFunc(samples func() int) omla.EpochFunc {
	if len(o.observers) == 0 {
		return nil
	}
	return func(epoch, epochs int) {
		o.emit(Event{Phase: PhaseTrain, Epoch: epoch, Epochs: epochs, Samples: samples()})
	}
}

// TrainProxyCtx trains a proxy model of the given kind against the
// locked netlist. The context is checked at every data-generation round
// and training epoch (and, for ModelAdversarial, every Eq. 3 SA
// iteration); on cancellation the partially trained proxy is returned
// alongside an error matching both ErrCanceled and ctx.Err(). Observers
// registered via WithObserver receive PhaseTrain events per epoch and,
// for ModelAdversarial, PhaseAdvSearch events per SA iteration.
func TrainProxyCtx(ctx context.Context, locked *aig.AIG, kind ModelKind,
	baseline synth.Recipe, cfg Config, opts ...Option) (*Proxy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ro := buildOptions(opts)
	switch kind {
	case ModelResyn2:
		atk, err := omla.TrainCtx(ctx, locked, baseline, cfg.Attack,
			ro.epochFunc(func() int { return cfg.Attack.Rounds * cfg.Attack.GatesPerRound }))
		if err != nil {
			return &Proxy{Kind: kind, Attack: atk}, canceled(err)
		}
		return &Proxy{Kind: kind, Attack: atk}, nil
	case ModelRandom:
		rng := rand.New(rand.NewSource(cfg.Seed + 101))
		ext := subgraph.Extractor{Hops: cfg.Attack.Hops}
		dataRng := rand.New(rand.NewSource(cfg.Attack.Seed))
		data, err := omla.GenerateDataCtx(ctx, locked, func(int) synth.Recipe {
			return synth.RandomRecipe(rng, cfg.RecipeLen)
		}, cfg.Attack.Rounds, cfg.Attack.GatesPerRound, ext, dataRng)
		if err != nil {
			return &Proxy{Kind: kind, Attack: &omla.Attack{Ext: ext}}, canceled(err)
		}
		atk, err := omla.TrainOnDataCtx(ctx, data, cfg.Attack,
			ro.epochFunc(func() int { return len(data) }))
		if err != nil {
			return &Proxy{Kind: kind, Attack: atk}, canceled(err)
		}
		return &Proxy{Kind: kind, Attack: atk}, nil
	case ModelAdversarial:
		atk, err := trainAdversarialCtx(ctx, locked, cfg, ro)
		if err != nil {
			return &Proxy{Kind: kind, Attack: atk}, err
		}
		return &Proxy{Kind: kind, Attack: atk}, nil
	}
	return nil, fmt.Errorf("%w: ModelKind(%d); valid kinds are ModelResyn2, ModelRandom, ModelAdversarial",
		ErrUnknownModel, int(kind))
}

// advProblem is the Eq. 3 search: find a recipe maximizing the model's
// loss on freshly relocked localities (gradient-free adversarial
// perturbation in recipe space). Like the Eq. 1 search it evaluates
// through a concurrent engine; model inference is read-only, so workers
// share the model while each re-synthesizes its own relocked copy.
type advProblem struct {
	eng *engine.Evaluator
}

func (p *advProblem) Energy(r synth.Recipe) float64 { return p.eng.Evaluate(r) }

func (p *advProblem) EnergyBatch(rs []synth.Recipe) []float64 {
	return p.eng.EvaluateBatch(rs)
}

func (p *advProblem) EnergyBatchCtx(ctx context.Context, rs []synth.Recipe) ([]float64, error) {
	return p.eng.EvaluateBatchCtx(ctx, rs)
}

func (p *advProblem) Neighbor(r synth.Recipe, rng *rand.Rand) synth.Recipe {
	return synth.MutateRecipe(rng, r)
}

// workerState is the per-engine-worker inference state parked in the
// engine scratch's Aux slot: the fused attack scratch (batched
// extraction + pooled matrices + packed batch) plus the buffers the
// adversarial energy needs for labeled extraction over chosen key gates.
type workerState struct {
	bs     omla.BatchScratch // fused AccuracyBatchWith state
	batch  gnn.Batch         // packed labeled localities for advEnergy
	kisAll []int             // all key-input indices of a candidate
	kis    []int             // the relocked subset, in keyOrder
}

// auxScratch returns the worker's inference state, lazily parked in the
// engine scratch's Aux slot.
func auxScratch(s *engine.Scratch) *workerState {
	ws, ok := s.Aux.(*workerState)
	if !ok {
		ws = &workerState{}
		s.Aux = ws
	}
	return ws
}

// advEnergy builds the engine EvalFunc for one augmentation round: score
// a recipe by the model's (negated) loss on the re-synthesized localities
// of the relocked netlist. maximize loss = minimize negative loss.
// Synthesis goes through the scratch's Synth/Release pair, so SA
// proposals that share a recipe prefix with the previous candidate are
// applied as deltas against the worker's persistent base instead of
// re-synthesized from scratch. Scoring runs through the fused batch
// seam: one batched extraction plus one blocked GIN forward over all
// chosen key gates, reusing the worker's state.
func advEnergy(model *gnn.Model, keyOrder []int, bits []bool, ext subgraph.Extractor) engine.EvalFunc {
	return func(g *aig.AIG, s *engine.Scratch, r synth.Recipe) float64 {
		ws := auxScratch(s)
		resynth := s.Synth(r)
		ws.kisAll = resynth.KeyInputIndicesInto(ws.kisAll)
		if cap(ws.kis) < len(keyOrder) {
			ws.kis = make([]int, len(keyOrder))
		}
		ws.kis = ws.kis[:len(keyOrder)]
		for i, ko := range keyOrder {
			ws.kis[i] = ws.kisAll[ko]
		}
		ext.LabeledInto(&ws.bs.Sub, resynth, ws.kis, bits, &ws.batch)
		loss := model.LossBatchWith(&ws.bs.NN, &ws.batch)
		s.Release(resynth)
		return -loss
	}
}

// trainAdversarialCtx implements Algorithm 1. The context is checked at
// every training epoch and every SA iteration of the Eq. 3 searches; on
// cancellation the model trained so far is returned alongside an error
// matching both ErrCanceled and ctx.Err(). ro streams PhaseTrain and
// PhaseAdvSearch events.
func trainAdversarialCtx(ctx context.Context, locked *aig.AIG, cfg Config,
	ro *runOptions) (*omla.Attack, error) {
	acfg := cfg.Attack
	rng := rand.New(rand.NewSource(cfg.Seed + 211))
	recipeRng := rand.New(rand.NewSource(cfg.Seed + 223))
	ext := subgraph.Extractor{Hops: acfg.Hops}

	// Line 1-2: initial data from random-recipe relock/resynthesize.
	data, err := omla.GenerateDataCtx(ctx, locked, func(int) synth.Recipe {
		return synth.RandomRecipe(recipeRng, cfg.RecipeLen)
	}, acfg.Rounds, acfg.GatesPerRound, ext, rng)
	if err != nil {
		return &omla.Attack{Ext: ext}, canceled(err)
	}

	gcfg := gnn.Config{
		InDim:     subgraph.FeatureDim,
		Hidden:    acfg.Hidden,
		Layers:    acfg.Layers,
		LR:        acfg.LR,
		BatchSize: 32,
	}
	model := gnn.NewModel(gcfg, rand.New(rand.NewSource(cfg.Seed+227))) // line 3: He init
	trainRng := rand.New(rand.NewSource(cfg.Seed + 229))
	atk := &omla.Attack{Model: model, Ext: ext}
	var sc subgraph.Scratch // line 7 extraction state, reused across augmentations
	var batch gnn.Batch

	var advObserve anneal.Observer[synth.Recipe]
	if len(ro.observers) > 0 {
		advObserve = func(tp anneal.TracePoint[synth.Recipe]) {
			ro.emit(Event{Phase: PhaseAdvSearch, Iteration: tp.Iteration,
				Iterations: cfg.AdvSAIters, Energy: tp.Energy, BestEnergy: tp.Best,
				Recipe: tp.State, Best: tp.BestState})
		}
	}

	for epoch := 0; epoch < acfg.Epochs; epoch++ { // line 4
		if err := ctx.Err(); err != nil {
			return atk, canceled(err)
		}
		if cfg.AdvPeriod > 0 && epoch > 0 && epoch%cfg.AdvPeriod == 0 { // line 5
			// Line 6: SA for an adversarial recipe s*. Training pauses while
			// the engine workers run read-only inference on the model.
			relocked, keyOrder, bits := lock.Relock(locked, cfg.AdvGates, rng)
			init := synth.RandomRecipe(recipeRng, cfg.RecipeLen)
			res, err := func() (anneal.Result[synth.Recipe], error) {
				eng := engine.New(relocked, cfg.Parallelism, advEnergy(model, keyOrder, bits, ext))
				defer eng.Close()
				saCfg := anneal.Config{Iterations: cfg.AdvSAIters, InitTemp: cfg.SA.InitTemp,
					Acceptance: cfg.SA.Acceptance}
				return anneal.RunParallelCtx[synth.Recipe](ctx, &advProblem{eng: eng}, init, saCfg,
					anneal.ParallelConfig{Proposals: cfg.SAProposals, Seed: cfg.Seed + int64(epoch)},
					advObserve)
			}()
			if err != nil {
				return atk, canceled(err)
			}
			// Line 7: augment D_training with X^{s*}.
			resynth := res.Best.Apply(relocked)
			kisAll := resynth.KeyInputIndices()
			kis := make([]int, len(keyOrder))
			for i, ko := range keyOrder {
				kis[i] = kisAll[ko]
			}
			data = append(data, ext.LabeledInto(&sc, resynth, kis, bits, &batch).Unpack()...)
		}
		model.TrainEpoch(data, trainRng) // lines 8-9
		if len(ro.observers) > 0 {
			ro.emit(Event{Phase: PhaseTrain, Epoch: epoch, Epochs: acfg.Epochs, Samples: len(data)})
		}
	}
	return atk, nil
}

// EstimateAccuracy predicts the attack accuracy obtained on the locked
// netlist after synthesizing it with recipe r — the quantity Eq. 1
// minimizes toward 0.5. The defender knows the true key, so accuracy is
// measured exactly against it.
func (p *Proxy) EstimateAccuracy(locked *aig.AIG, r synth.Recipe, truth lock.Key) float64 {
	return p.Attack.AccuracyBatch(r.Apply(locked), truth)
}

// searchProblem is the Eq. 1 objective, generalized to an attack
// ensemble: per candidate recipe every attack of the (canonicalized)
// EvalAttacks list is evaluated on the synthesized netlist, the
// deviations |Acc_a − 0.5| are reduced per EnsembleReduce, and the
// engine memoizes the reduced energy under the recipe's canonical hash
// while the per-attack accuracies land in accs. Workers each score on a
// private copy of the locked netlist, so the whole objective is a pure
// function of the recipe and the trajectory is jobs-invariant.
type searchProblem struct {
	eng     *engine.Evaluator
	attacks []string // canonical (registration) order
	reduce  EnsembleReduce
	accs    sync.Map // engine.RecipeKey -> []float64, aligned with attacks

	// mu guards evalErr, the first non-cancellation failure reported by
	// an ensemble attacker. Built-ins only fail on cancellation, but a
	// registered third-party attack may fail for real — the next batch
	// surfaces the error instead of letting the search run to a
	// meaningless result on NaN energies.
	mu      sync.Mutex
	evalErr error
}

func (p *searchProblem) recordErr(err error) {
	p.mu.Lock()
	if p.evalErr == nil {
		p.evalErr = err
	}
	p.mu.Unlock()
}

func (p *searchProblem) firstErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.evalErr
}

// accuracies returns the per-attack accuracies of an evaluated recipe.
// Scores are recorded before the engine settles the energy, so any
// recipe the engine has scored resolves here.
func (p *searchProblem) accuracies(r synth.Recipe) ([]float64, bool) {
	v, ok := p.accs.Load(engine.RecipeKey(r))
	if !ok {
		return nil, false
	}
	return v.([]float64), true
}

// headline compresses per-attack accuracies into the single Accuracy the
// result and trace report: under ReduceWorst the accuracy of the attack
// deviating most from 0.5 (ties resolved in registration order), under
// ReduceMean the mean accuracy. For a single-attack objective both are
// that attack's accuracy, matching the pre-ensemble semantics.
func (p *searchProblem) headline(accs []float64) float64 {
	if len(accs) == 0 {
		return math.NaN()
	}
	if p.reduce == ReduceMean {
		var sum float64
		for _, a := range accs {
			sum += a
		}
		return sum / float64(len(accs))
	}
	worst := 0
	for i, a := range accs {
		if math.Abs(a-0.5) > math.Abs(accs[worst]-0.5) {
			worst = i
		}
	}
	return accs[worst]
}

func (p *searchProblem) reduceEnergy(accs []float64) float64 {
	switch p.reduce {
	case ReduceMean:
		var sum float64
		for _, a := range accs {
			sum += math.Abs(a - 0.5)
		}
		return sum / float64(len(accs))
	default:
		var worst float64
		for i, a := range accs {
			if d := math.Abs(a - 0.5); i == 0 || d > worst || math.IsNaN(d) {
				worst = d
			}
		}
		return worst
	}
}

func (p *searchProblem) Energy(r synth.Recipe) float64 { return p.eng.Evaluate(r) }

func (p *searchProblem) EnergyBatch(rs []synth.Recipe) []float64 {
	return p.eng.EvaluateBatch(rs)
}

func (p *searchProblem) EnergyBatchCtx(ctx context.Context, rs []synth.Recipe) ([]float64, error) {
	out, err := p.eng.EvaluateBatchCtx(ctx, rs)
	if err != nil {
		return nil, err
	}
	if err := p.firstErr(); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *searchProblem) Neighbor(r synth.Recipe, rng *rand.Rand) synth.Recipe {
	return synth.MutateRecipe(rng, r)
}

// SearchTracePoint records the accuracy trajectory of the recipe search —
// the curves of Fig. 4.
type SearchTracePoint struct {
	Iteration int
	// Accuracy is the headline accuracy of the iteration's recipe (for
	// the default OMLA-only objective: the proxy-estimated accuracy).
	Accuracy float64
	// Accuracies holds the per-attack accuracies of an ensemble
	// objective, keyed by registered attack name.
	Accuracies map[string]float64
	Recipe     synth.Recipe
}

// SearchResult is the outcome of the Eq. 1 search.
type SearchResult struct {
	Recipe   synth.Recipe // S_ALMOST
	Accuracy float64      // headline accuracy of Recipe (see SearchTracePoint)
	// Attacks is the ensemble evaluated, in canonical registration order
	// (["omla"] for the paper's default objective).
	Attacks []string
	// Accuracies holds Recipe's per-attack accuracies by attack name.
	Accuracies map[string]float64
	Trace      []SearchTracePoint
}

// SearchRecipeCtx runs the security-aware SA recipe generation (Eq. 1)
// using the proxy as the accuracy evaluator. When the budget ends
// without reaching ~50%, the best recipe found is returned (as the paper
// does for c2670, c5315, c7552).
//
// cfg.EvalAttacks generalizes the objective to an attack ensemble: every
// named registered attack is evaluated per candidate and the deviations
// reduce per cfg.EnsembleReduce. The "omla" entry is estimated by the
// trained proxy; other entries run the registered attack on the
// candidate netlist. Evaluation runs on the concurrent engine: every SA
// iteration proposes cfg.SAProposals neighbors, scored across
// cfg.Parallelism workers with memoization, and the trajectory is
// identical for any worker count and any EvalAttacks order.
//
// The context is checked at every SA iteration and inside every engine
// batch; on cancellation the best-so-far SearchResult (well-formed, with
// the trace recorded up to the cancellation point) is returned alongside
// an error matching both ErrCanceled and ctx.Err(). Observers receive
// one PhaseSearch event per attack per iteration, labeled with the
// attack name — the Fig. 4 trace, live, one curve per ensemble member.
func SearchRecipeCtx(ctx context.Context, locked *aig.AIG, truth lock.Key,
	proxy *Proxy, cfg Config, opts ...Option) (SearchResult, error) {
	if err := cfg.Validate(); err != nil {
		return SearchResult{}, err
	}
	attacks, err := canonicalAttacks(cfg.EvalAttacks)
	if err != nil {
		return SearchResult{}, err
	}
	ro := buildOptions(opts)
	prob := &searchProblem{attacks: attacks, reduce: cfg.EnsembleReduce}

	// One estimator per ensemble member. "omla" is the trained proxy —
	// re-training the real OMLA per candidate is exactly the naive flow
	// Fig. 2 rejects; the others run the registered attack itself. Each
	// estimator receives the worker's engine scratch so proxy inference
	// reuses pooled matrices; registered attacks must not retain the
	// netlist (it is recycled after scoring).
	evals := make([]func(net *aig.AIG, s *engine.Scratch, r synth.Recipe) float64, len(attacks))
	for i, name := range attacks {
		if name == "omla" {
			// The proxy scores every key gate of the candidate through one
			// fused batch: a single shared-index extraction and one blocked
			// GIN forward.
			evals[i] = func(net *aig.AIG, s *engine.Scratch, _ synth.Recipe) float64 {
				return proxy.Attack.AccuracyBatchWith(&auxScratch(s).bs, net, truth)
			}
			continue
		}
		atk, _ := LookupAttacker(name) // canonicalAttacks verified the name
		name := name
		evals[i] = func(net *aig.AIG, _ *engine.Scratch, r synth.Recipe) float64 {
			acc, err := atk.AttackCtx(ctx, net, truth, WithRecipe(r))
			if err != nil {
				// Cancellation is surfaced by the engine batch itself; a
				// genuine attacker failure is recorded so the next batch
				// aborts the search with it rather than annealing on NaN.
				if ctx.Err() == nil {
					prob.recordErr(fmt.Errorf("core: ensemble attack %q failed: %w", name, err))
				}
				return math.NaN()
			}
			return acc
		}
	}

	eng := engine.New(locked, cfg.Parallelism, func(g *aig.AIG, s *engine.Scratch, r synth.Recipe) float64 {
		net := s.Synth(r)
		accs := make([]float64, len(evals))
		for i, eval := range evals {
			accs[i] = eval(net, s, r)
		}
		prob.accs.Store(engine.RecipeKey(r), accs)
		s.Release(net)
		return prob.reduceEnergy(accs)
	})
	defer eng.Close()
	prob.eng = eng
	rng := rand.New(rand.NewSource(cfg.Seed + 307))
	init := synth.RandomRecipe(rng, cfg.RecipeLen)

	var observe anneal.Observer[synth.Recipe]
	if len(ro.observers) > 0 {
		observe = func(tp anneal.TracePoint[synth.Recipe]) {
			// The state was evaluated by this iteration's batch, so the
			// accuracy lookup always resolves.
			accs, _ := prob.accuracies(tp.State)
			for i, name := range attacks {
				acc := math.NaN()
				if i < len(accs) {
					acc = accs[i]
				}
				ro.emit(Event{Phase: PhaseSearch, Attack: name, Iteration: tp.Iteration,
					Iterations: cfg.SA.Iterations, Energy: tp.Energy, BestEnergy: tp.Best,
					Accuracy: acc, Recipe: tp.State, Best: tp.BestState})
			}
		}
	}

	res, runErr := anneal.RunParallelCtx[synth.Recipe](ctx, prob, init, cfg.SA,
		anneal.ParallelConfig{Proposals: cfg.SAProposals, Seed: cfg.Seed + 311}, observe)
	out := SearchResult{Recipe: res.Best, Attacks: attacks}
	byName := func(accs []float64) map[string]float64 {
		m := make(map[string]float64, len(attacks))
		for i, name := range attacks {
			if i < len(accs) {
				m[name] = accs[i]
			}
		}
		return m
	}
	for _, tp := range res.Trace {
		accs, _ := prob.accuracies(tp.State)
		out.Trace = append(out.Trace, SearchTracePoint{
			Iteration:  tp.Iteration,
			Accuracy:   prob.headline(accs),
			Accuracies: byName(accs),
			Recipe:     tp.State,
		})
	}
	// Best-so-far accuracies come from the recorded evaluations rather
	// than a fresh run; a miss only happens when the search was canceled
	// before the initial state was scored.
	if accs, ok := prob.accuracies(res.Best); ok {
		out.Accuracy = prob.headline(accs)
		out.Accuracies = byName(accs)
	} else {
		out.Accuracy = math.NaN()
	}
	if runErr != nil {
		// A cancellation gets the ErrCanceled wrapper; a genuine ensemble
		// attacker failure is returned as recorded.
		return out, canceledIfCtx(ctx, runErr)
	}
	return out, nil
}

// Hardened is the output of the end-to-end pipeline.
type Hardened struct {
	Locked  *aig.AIG     // locked netlist (pre-synthesis)
	Netlist *aig.AIG     // S_ALMOST-synthesized locked netlist
	Key     lock.Key     // the correct key
	Lockers []string     // locking schemes applied, in chain order
	Recipe  synth.Recipe // S_ALMOST
	Search  SearchResult
	Proxy   *Proxy
}

// SecureSynthesisCtx runs the full ALMOST flow on an unlocked design:
// lock with keySize bits using the cfg.Lockers chain (plain RLL by
// default), train the adversarial proxy M*, search for S_ALMOST against
// the cfg.EvalAttacks objective, and synthesize the final netlist.
//
// The context is threaded through every stage (training epochs, Eq. 3
// searches, Eq. 1 search, engine batches). On cancellation the returned
// *Hardened is non-nil and holds everything completed so far — always
// Locked and Key, plus the partially trained Proxy, the best-so-far
// Search, and (when a best recipe exists) the Netlist synthesized with
// it — alongside an error matching both ErrCanceled and ctx.Err().
// A nil *Hardened is returned only when no work completed at all: an
// invalid Config, or a locking-stage failure.
func SecureSynthesisCtx(ctx context.Context, design *aig.AIG, keySize int,
	cfg Config, opts ...Option) (*Hardened, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ro := buildOptions(opts)
	rng := rand.New(rand.NewSource(cfg.Seed))
	chain, _ := canonicalLockers(cfg.Lockers) // Validate checked the names
	ro.emit(Event{Phase: PhaseLock, Lockers: chain})
	locked, key, err := LockWithCtx(ctx, design, keySize, cfg.Lockers, rng)
	if err != nil {
		// Locking failed before any durable work existed, so there is no
		// partial Hardened to return; a third-party locker that honored
		// the context still yields an ErrCanceled-matching error.
		return nil, canceledIfCtx(ctx, err)
	}
	h := &Hardened{Locked: locked, Key: key, Lockers: chain}

	proxy, err := TrainProxyCtx(ctx, locked, ModelAdversarial, synth.Resyn2(), cfg, opts...)
	h.Proxy = proxy
	if err != nil {
		return h, err
	}
	search, err := SearchRecipeCtx(ctx, locked, key, proxy, cfg, opts...)
	h.Search = search
	h.Recipe = search.Recipe
	if err != nil {
		if len(search.Recipe) > 0 {
			h.Netlist = search.Recipe.Apply(locked)
		}
		return h, err
	}
	ro.emit(Event{Phase: PhaseSynth, Recipe: search.Recipe, Best: search.Recipe,
		Accuracy: search.Accuracy})
	h.Netlist = search.Recipe.Apply(locked)
	return h, nil
}
