package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/anneal"
	"github.com/nyu-secml/almost/internal/core"
	"github.com/nyu-secml/almost/internal/synth"
	"github.com/nyu-secml/almost/internal/techmap"
)

// --- Fig. 4: SA recipe search with the three evaluator models ---------

// Fig4Series is one benchmark's three accuracy-vs-iteration curves.
type Fig4Series struct {
	Benchmark string
	// Curves[kind][i] = proxy-estimated accuracy at SA iteration i.
	Curves map[core.ModelKind][]float64
	// Final recipes found by each evaluator.
	Recipes map[core.ModelKind]synth.Recipe
}

// RunFig4 reproduces Fig. 4: for each benchmark, the SA-based recipe
// search is run three times, using M^resyn2, M^random, and M* as the
// accuracy evaluator, and the per-iteration accuracy is recorded. The
// paper's observed shape: searches guided by M* take longer to reach
// ~50% because the adversarially trained model is harder to fool.
func RunFig4(ctx context.Context, opt Options) ([]Fig4Series, error) {
	resyn := synth.Resyn2()
	keySize := opt.KeySizes[0]
	out := make([]Fig4Series, len(opt.Benchmarks))
	copt := opt.cellOptions(len(opt.Benchmarks))
	err := fanOut(ctx, len(opt.Benchmarks), opt.jobs(), func(bi int) error {
		bench := opt.Benchmarks[bi]
		_, locked, key, err := opt.lockedInstance(bench, keySize, opt.Seed)
		if err != nil {
			return err
		}
		series := Fig4Series{
			Benchmark: bench,
			Curves:    map[core.ModelKind][]float64{},
			Recipes:   map[core.ModelKind]synth.Recipe{},
		}
		for _, kind := range []core.ModelKind{core.ModelAdversarial, core.ModelResyn2, core.ModelRandom} {
			proxy, err := core.TrainProxyCtx(ctx, locked, kind, resyn, copt.Cfg, opt.coreOpts()...)
			if err != nil {
				return err
			}
			res, err := core.SearchRecipeCtx(ctx, locked, key, proxy, copt.Cfg, opt.coreOpts()...)
			if err != nil {
				return err
			}
			curve := make([]float64, len(res.Trace))
			for i, tp := range res.Trace {
				curve[i] = tp.Accuracy
			}
			series.Curves[kind] = curve
			series.Recipes[kind] = res.Recipe
		}
		out[bi] = series
		return nil
	})
	if err != nil {
		return out, canceledErr(err)
	}
	for _, series := range out {
		printFig4(opt.out(), series)
	}
	return out, nil
}

func printFig4(w io.Writer, s Fig4Series) {
	fmt.Fprintf(w, "\nFIG 4 (%s): SA accuracy traces\n", s.Benchmark)
	fmt.Fprintf(w, "iter, adversarial, resyn2, random\n")
	n := len(s.Curves[core.ModelAdversarial])
	for i := 0; i < n; i++ {
		fmt.Fprintf(w, "%4d, %.4f, %.4f, %.4f\n", i,
			at(s.Curves[core.ModelAdversarial], i),
			at(s.Curves[core.ModelResyn2], i),
			at(s.Curves[core.ModelRandom], i))
	}
}

func at(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// IterationsToReach returns the first iteration at which the curve comes
// within tol of 0.5, or -1 if it never does — the Fig. 4 comparison
// metric.
func (s Fig4Series) IterationsToReach(kind core.ModelKind, tol float64) int {
	for i, a := range s.Curves[kind] {
		d := a - 0.5
		if d < 0 {
			d = -d
		}
		if d <= tol {
			return i
		}
	}
	return -1
}

// --- Fig. 5: attacker re-synthesis targeting PPA ----------------------

// PPATarget selects the re-synthesis objective of Fig. 5.
type PPATarget int

// Objectives.
const (
	TargetDelay PPATarget = iota
	TargetArea
)

func (t PPATarget) String() string {
	if t == TargetArea {
		return "area"
	}
	return "delay"
}

// Fig5Point is one iteration of the attacker's PPA-driven re-synthesis.
type Fig5Point struct {
	Iteration int
	Accuracy  float64 // M* attack accuracy on the re-synthesized netlist
	Ratio     float64 // area or delay normalized to the resyn2 baseline
}

// Fig5Series is one (benchmark, objective) trace.
type Fig5Series struct {
	Benchmark string
	Target    PPATarget
	Points    []Fig5Point
}

// ppaProblem anneals over recipes minimizing mapped area or delay.
type ppaProblem struct {
	locked *aig.AIG
	lib    *techmap.Library
	target PPATarget
	cache  map[string]float64
}

func (p *ppaProblem) Energy(r synth.Recipe) float64 {
	k := r.String()
	if v, ok := p.cache[k]; ok {
		return v
	}
	res := techmap.Map(r.Apply(p.locked), p.lib, techmap.EffortNone)
	v := res.Delay
	if p.target == TargetArea {
		v = res.Area
	}
	p.cache[k] = v
	return v
}

func (p *ppaProblem) Neighbor(r synth.Recipe, rng *rand.Rand) synth.Recipe {
	return synth.MutateRecipe(rng, r)
}

// RunFig5 reproduces Fig. 5: starting from the ALMOST-synthesized locked
// netlist, the attacker re-synthesizes with SA recipes minimizing delay
// (and, separately, area); at each iteration the M* attack accuracy and
// the normalized PPA metric are recorded. The paper's claim: no
// correlation between PPA optimization and attack accuracy, so
// re-synthesis does not help the attacker.
func RunFig5(ctx context.Context, opt Options) ([]Fig5Series, error) {
	resyn := synth.Resyn2()
	lib := techmap.NanGate45()
	keySize := opt.KeySizes[0]
	out := make([]Fig5Series, 2*len(opt.Benchmarks))
	copt := opt.cellOptions(len(opt.Benchmarks))
	err := fanOut(ctx, len(opt.Benchmarks), opt.jobs(), func(bi int) error {
		bench := opt.Benchmarks[bi]
		_, locked, key, err := opt.lockedInstance(bench, keySize, opt.Seed)
		if err != nil {
			return err
		}
		proxy, err := core.TrainProxyCtx(ctx, locked, core.ModelAdversarial, resyn, copt.Cfg, opt.coreOpts()...)
		if err != nil {
			return err
		}
		search, err := core.SearchRecipeCtx(ctx, locked, key, proxy, copt.Cfg, opt.coreOpts()...)
		if err != nil {
			return err
		}
		almostNet := search.Recipe.Apply(locked)
		base := techmap.Map(resyn.Apply(locked), lib, techmap.EffortNone)

		for ti, target := range []PPATarget{TargetDelay, TargetArea} {
			prob := &ppaProblem{locked: almostNet, lib: lib, target: target,
				cache: map[string]float64{}}
			rng := rand.New(rand.NewSource(opt.Seed + 17))
			res, err := anneal.RunCtx[synth.Recipe](ctx, prob, synth.RandomRecipe(rng, opt.Cfg.RecipeLen),
				opt.Cfg.SA, rng, nil)
			if err != nil {
				return err
			}
			series := Fig5Series{Benchmark: bench, Target: target}
			for _, tp := range res.Trace {
				net := tp.State.Apply(almostNet)
				acc := proxy.Attack.AccuracyBatch(net, key)
				den := base.Delay
				if target == TargetArea {
					den = base.Area
				}
				ratio := tp.Energy / den
				series.Points = append(series.Points, Fig5Point{
					Iteration: tp.Iteration, Accuracy: acc, Ratio: ratio})
			}
			out[2*bi+ti] = series
		}
		return nil
	})
	if err != nil {
		return out, canceledErr(err)
	}
	for _, series := range out {
		printFig5(opt.out(), series)
	}
	return out, nil
}

func printFig5(w io.Writer, s Fig5Series) {
	fmt.Fprintf(w, "\nFIG 5 (%s, minimize %s): accuracy vs normalized %s\n",
		s.Benchmark, s.Target, s.Target)
	fmt.Fprintf(w, "iter, accuracy, %s_ratio\n", s.Target)
	for _, p := range s.Points {
		fmt.Fprintf(w, "%4d, %.4f, %.4f\n", p.Iteration, p.Accuracy, p.Ratio)
	}
}

// Correlation returns the Pearson correlation between accuracy and the
// PPA ratio across the trace — the paper argues it is near zero.
func (s Fig5Series) Correlation() float64 {
	n := float64(len(s.Points))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	for _, p := range s.Points {
		sx += p.Accuracy
		sy += p.Ratio
		sxx += p.Accuracy * p.Accuracy
		syy += p.Ratio * p.Ratio
		sxy += p.Accuracy * p.Ratio
	}
	cov := sxy/n - (sx/n)*(sy/n)
	vx := sxx/n - (sx/n)*(sx/n)
	vy := syy/n - (sy/n)*(sy/n)
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / (math.Sqrt(vx) * math.Sqrt(vy))
}
