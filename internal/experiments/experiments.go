// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV): the model-transferability motivation (§III-A),
// Table I (proxy-model accuracy), Fig. 4 (SA recipe-search traces),
// Table II (OMLA/SCOPE/redundancy, resyn2 vs ALMOST), Fig. 5 (attacker
// re-synthesis), and Table III (PPA overheads).
//
// Each experiment is a pure function of its Options (fixed seeds), so
// reruns regenerate identical artifacts. Quick options trade benchmark
// count and training epochs for wall-clock while keeping the result
// shapes; Full options mirror the paper's settings.
//
// Every Run* function takes a context and returns the partial result
// computed so far together with an error when the context is canceled
// (matching core.ErrCanceled and ctx.Err()); an Options.Observer, when
// set, receives the pipeline progress events of every cell (cells run
// concurrently, so events from different cells interleave).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/core"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/netio"
	"github.com/nyu-secml/almost/internal/synth"
)

// Source resolves a benchmark name to a fresh circuit. It must be safe
// for concurrent calls (experiment cells fan out across workers) and
// must return an independent netlist on every call.
type Source func(name string) (*aig.AIG, error)

// Options configures an experiment run.
type Options struct {
	Benchmarks    []string
	KeySizes      []int
	Cfg           core.Config
	RandomSetSize int // size of the random-recipe evaluation set
	Seed          int64
	Out           io.Writer // table/series sink; nil discards
	// Source resolves Benchmarks entries to circuits. When nil the
	// built-in ISCAS-85 set is used; set it (e.g. via FileSource) to
	// run every table/figure driver on arbitrary external netlists.
	Source Source
	// Observer, when non-nil, receives the progress events of every
	// pipeline run inside the experiment. Cells run concurrently, so
	// events from different (benchmark, key size) cells interleave.
	Observer core.Observer
	// Attacks names the registered attacks Table II evaluates, one row
	// per attack. Nil selects every registered attack in registration
	// order — so a third-party attack registered before the run gets a
	// table row automatically.
	Attacks []string
}

// attackNames resolves the Table II attack rows: opt.Attacks when set
// (each name must be registered), otherwise all registered attacks.
func (o Options) attackNames() ([]AttackName, error) {
	names := o.Attacks
	if names == nil {
		names = core.Attackers()
	}
	out := make([]AttackName, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return nil, fmt.Errorf("experiments: attack %q listed twice", n)
		}
		seen[n] = true
		if _, ok := core.LookupAttacker(n); !ok {
			return nil, fmt.Errorf("experiments: attack %q is not registered (registered: %s)",
				n, strings.Join(core.Attackers(), ", "))
		}
		out = append(out, AttackName(n))
	}
	return out, nil
}

// circuit resolves one benchmark name through Source (or the built-ins).
func (o Options) circuit(name string) (*aig.AIG, error) {
	if o.Source != nil {
		return o.Source(name)
	}
	return circuits.Generate(name)
}

// FileSource loads the given netlist files (formats sniffed from the
// extensions: .bench, .aag, .aig) and returns their names — base name
// with the extension stripped — in argument order, together with a
// Source serving independent clones of them and falling back to the
// built-in circuits for any other name. Loading is eager so malformed
// files fail here, once, instead of inside a fanned-out cell.
func FileSource(paths ...string) ([]string, Source, error) {
	names := make([]string, 0, len(paths))
	byName := make(map[string]*aig.AIG, len(paths))
	for _, p := range paths {
		g, err := netio.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		name := strings.TrimSuffix(filepath.Base(p), filepath.Ext(p))
		if _, dup := byName[name]; dup {
			return nil, nil, fmt.Errorf("experiments: duplicate circuit name %q (from %s)", name, p)
		}
		names = append(names, name)
		byName[name] = g
	}
	src := func(name string) (*aig.AIG, error) {
		if g, ok := byName[name]; ok {
			return g.Clone(), nil
		}
		return circuits.Generate(name)
	}
	return names, src, nil
}

// coreOpts converts the Observer into core functional options.
func (o Options) coreOpts() []core.Option {
	if o.Observer == nil {
		return nil
	}
	return []core.Option{core.WithObserver(o.Observer)}
}

// canceledErr normalizes cancellation errors so every Run* error matches
// core.ErrCanceled regardless of whether the cancel was caught inside a
// pipeline call (already wrapped) or by this package's own checkpoints
// (bare ctx.Err()).
func canceledErr(err error) error {
	if err == nil || errors.Is(err, core.ErrCanceled) {
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", core.ErrCanceled, err)
	}
	return err
}

// QuickOptions returns a configuration that finishes each experiment in
// minutes on a laptop while preserving the paper's qualitative shapes.
func QuickOptions() Options {
	cfg := core.DefaultConfig()
	cfg.Attack.Epochs = 15
	cfg.Attack.Rounds = 6
	cfg.SA.Iterations = 20
	cfg.AdvPeriod = 5
	cfg.AdvGates = 30
	cfg.AdvSAIters = 6
	return Options{
		Benchmarks:    []string{"c1355", "c1908"},
		KeySizes:      []int{64},
		Cfg:           cfg,
		RandomSetSize: 8,
		Seed:          1,
	}
}

// FullOptions mirrors the paper's setup: all seven ISCAS85 benchmarks,
// key sizes 64 and 128, full Algorithm 1 settings, SA for 100 iterations.
func FullOptions() Options {
	return Options{
		Benchmarks:    circuits.PaperSet(),
		KeySizes:      []int{64, 128},
		Cfg:           core.PaperConfig(),
		RandomSetSize: 100,
		Seed:          1,
	}
}

func (o Options) out() io.Writer {
	if o.Out == nil {
		return io.Discard
	}
	return o.Out
}

// jobs resolves the fan-out width from the framework config.
func (o Options) jobs() int {
	if o.Cfg.Parallelism > 0 {
		return o.Cfg.Parallelism
	}
	return runtime.NumCPU()
}

// cellOptions returns the Options used inside one fanned-out cell: the
// Parallelism budget is split between the cell fan-out and each cell's
// evaluation engine so total concurrency stays ~jobs (never jobs²), and
// a budget wider than the cell count flows into the per-cell engines
// instead of idling. Engine worker count never affects results, so this
// is wall-clock-only.
func (o Options) cellOptions(cells int) Options {
	if j := o.jobs(); cells > 1 && j > 1 {
		per := j / cells
		if per < 1 {
			per = 1
		}
		o.Cfg.Parallelism = per
	}
	return o
}

// fanOut runs fn(i) for every i in [0, n), at most jobs concurrently.
// Every experiment's per-(benchmark, key size) cell is a pure function of
// Options with its own seeds, so running cells concurrently and having
// each fn write only its own result slot reproduces the sequential
// output exactly; reports are printed after the barrier, in order.
//
// The context is checked before every cell launch: once canceled, no new
// cells start, in-flight cells run to their own cancellation checkpoints,
// and the first error (or ctx.Err()) is returned after the barrier.
func fanOut(ctx context.Context, n, jobs int, fn func(i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, jobs)
	var mu sync.Mutex
	var firstErr error
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// lockedInstance deterministically locks a benchmark for an experiment,
// resolving the circuit through the configured Source.
func (o Options) lockedInstance(name string, keySize int, seed int64) (*aig.AIG, *aig.AIG, lock.Key, error) {
	g, err := o.circuit(name)
	if err != nil {
		return nil, nil, nil, err
	}
	locked, key := lock.Lock(g, keySize, rand.New(rand.NewSource(seed)))
	return g, locked, key, nil
}

// randomRecipeSet draws n deterministic random recipes.
func randomRecipeSet(n, length int, seed int64) []synth.Recipe {
	rng := rand.New(rand.NewSource(seed))
	out := make([]synth.Recipe, n)
	for i := range out {
		out[i] = synth.RandomRecipe(rng, length)
	}
	return out
}

// --- §III-A: model transferability motivation -------------------------

// TransferResult holds the 2×2 cross-accuracy matrix of §III-A.
type TransferResult struct {
	Benchmark string
	S1, S2    synth.Recipe
	// Acc[i][j] = accuracy of model trained on S_i attacking T_{S_j}.
	Acc [2][2]float64
}

// RunTransferability reproduces the §III-A experiment: two attack models
// trained on two different recipes, evaluated across both synthesized
// netlists. The paper reports the diagonal (matched recipe) beating the
// off-diagonal on c5315.
func RunTransferability(ctx context.Context, bench string, keySize int, opt Options) (TransferResult, error) {
	_, locked, key, err := opt.lockedInstance(bench, keySize, opt.Seed)
	if err != nil {
		return TransferResult{Benchmark: bench}, err
	}
	rng := rand.New(rand.NewSource(opt.Seed + 11))
	s1 := synth.RandomRecipe(rng, opt.Cfg.RecipeLen)
	s2 := synth.RandomRecipe(rng, opt.Cfg.RecipeLen)
	t1 := s1.Apply(locked)
	t2 := s2.Apply(locked)

	res := TransferResult{Benchmark: bench, S1: s1, S2: s2}
	for i, s := range []synth.Recipe{s1, s2} {
		cfg := opt.Cfg
		cfg.Attack.Seed = opt.Seed + int64(i)
		p, err := core.TrainProxyCtx(ctx, locked, core.ModelResyn2, s, cfg, opt.coreOpts()...)
		if err != nil {
			return res, canceledErr(err)
		}
		res.Acc[i][0] = p.Attack.AccuracyBatch(t1, key)
		res.Acc[i][1] = p.Attack.AccuracyBatch(t2, key)
	}
	w := opt.out()
	fmt.Fprintf(w, "Transferability (%s, K=%d)\n", bench, keySize)
	fmt.Fprintf(w, "             T_S1      T_S2\n")
	fmt.Fprintf(w, "M_S1      %6.2f%%   %6.2f%%\n", res.Acc[0][0]*100, res.Acc[0][1]*100)
	fmt.Fprintf(w, "M_S2      %6.2f%%   %6.2f%%\n", res.Acc[1][0]*100, res.Acc[1][1]*100)
	return res, nil
}

// --- Table I: proxy-model accuracy ------------------------------------

// TableICell is the (resyn2, random-set-average) accuracy pair for one
// (model, benchmark, key size).
type TableICell struct {
	Resyn2    float64
	RandomAvg float64
}

// TableIResult maps model kind -> benchmark -> cell, per key size.
type TableIResult struct {
	KeySizes   []int
	Benchmarks []string
	// Cells[kind][keySizeIdx][benchIdx]
	Cells map[core.ModelKind][][]TableICell
}

// RunTableI reproduces Table I: predicted attack accuracy of M^resyn2,
// M^random, and M* on the resyn2-synthesized netlist and on a set of
// random-recipe netlists.
func RunTableI(ctx context.Context, opt Options) (TableIResult, error) {
	res := TableIResult{
		KeySizes:   opt.KeySizes,
		Benchmarks: opt.Benchmarks,
		Cells:      map[core.ModelKind][][]TableICell{},
	}
	kinds := []core.ModelKind{core.ModelResyn2, core.ModelRandom, core.ModelAdversarial}
	for _, kind := range kinds {
		res.Cells[kind] = make([][]TableICell, len(opt.KeySizes))
		for ki := range opt.KeySizes {
			res.Cells[kind][ki] = make([]TableICell, len(opt.Benchmarks))
		}
	}
	resyn := synth.Resyn2()
	nb := len(opt.Benchmarks)
	// Fan (key size, benchmark) cells out across workers; each cell writes
	// only its own Cells slots, and the table is printed after the barrier.
	ncells := len(opt.KeySizes) * nb
	copt := opt.cellOptions(ncells)
	err := fanOut(ctx, ncells, opt.jobs(), func(i int) error {
		ki, bi := i/nb, i%nb
		keySize, bench := opt.KeySizes[ki], opt.Benchmarks[bi]
		_, locked, key, err := opt.lockedInstance(bench, keySize, opt.Seed)
		if err != nil {
			return err
		}
		tResyn := resyn.Apply(locked)
		randomSet := randomRecipeSet(opt.RandomSetSize, opt.Cfg.RecipeLen, opt.Seed+99)
		randomNets := make([]*aig.AIG, len(randomSet))
		for i, r := range randomSet {
			randomNets[i] = r.Apply(locked)
		}
		for _, kind := range kinds {
			p, err := core.TrainProxyCtx(ctx, locked, kind, resyn, copt.Cfg, opt.coreOpts()...)
			if err != nil {
				return err
			}
			cell := TableICell{Resyn2: p.Attack.AccuracyBatch(tResyn, key)}
			var sum float64
			for _, net := range randomNets {
				sum += p.Attack.AccuracyBatch(net, key)
			}
			if len(randomNets) > 0 {
				cell.RandomAvg = sum / float64(len(randomNets))
			}
			res.Cells[kind][ki][bi] = cell
		}
		return nil
	})
	if err != nil {
		return res, canceledErr(err)
	}
	res.print(opt.out())
	return res, nil
}

func (r TableIResult) print(w io.Writer) {
	fmt.Fprintf(w, "\nTABLE I: PREDICTED ATTACK ACCURACY (%%) FOR DIFFERENT ADVERSARIAL MODELS\n")
	for _, kind := range []core.ModelKind{core.ModelResyn2, core.ModelRandom, core.ModelAdversarial} {
		for ki, keySize := range r.KeySizes {
			fmt.Fprintf(w, "%-9s K=%-4d", kind, keySize)
			for bi, bench := range r.Benchmarks {
				c := r.Cells[kind][ki][bi]
				fmt.Fprintf(w, " | %s resyn2=%5.2f random=%5.2f", bench, c.Resyn2*100, c.RandomAvg*100)
			}
			fmt.Fprintln(w)
		}
	}
}

// Gap returns, for the given kind and key-size index, the mean absolute
// difference between resyn2 and random-set accuracy across benchmarks —
// the consistency metric the paper uses to argue M* is the best proxy.
func (r TableIResult) Gap(kind core.ModelKind, ki int) float64 {
	cells := r.Cells[kind][ki]
	var sum float64
	for _, c := range cells {
		d := c.Resyn2 - c.RandomAvg
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(cells))
}
