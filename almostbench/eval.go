package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/cnf"
	"github.com/nyu-secml/almost/internal/core"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/netio"
	"github.com/nyu-secml/almost/internal/synth"
)

// recipe-eval: one candidate of ALMOST's Eq. 1 search, end to end, per
// operation — lock c432 with a seeded 16-bit RLL key, synthesize it
// with a seeded recipe that holds each of the seven transforms exactly
// once, train the M^resyn2 OMLA proxy at smoke effort and score the
// candidate with it, then run the scope and redundancy attacks on it.
// Every operation does the same kinds of work, so a run's averages
// hold still across seeds while resub, the SAT core, the GNN and the
// attacks all carry their share.

// evalTraceOps is the fixed operation count of a traced run.
const evalTraceOps = 3

type evalInst struct {
	seed   int64
	design *aig.AIG
}

func setupEval(_ context.Context, seed int64) (instance, error) {
	design, err := loadDesign(hardenCircuit)
	if err != nil {
		return nil, err
	}
	return &evalInst{seed: seed, design: design}, nil
}

func (e *evalInst) close() {}

// evaluation is the outcome of one operation.
type evaluation struct {
	locked, net *aig.AIG
	key         lock.Key
	recipe      synth.Recipe
	accs        []float64 // omla proxy, scope, redundancy
	lockS       float64
	attackS     float64 // both attacks
	totalS      float64
}

// op runs operation i; a non-nil observer traces the proxy training.
func (e *evalInst) op(ctx context.Context, i int, observe func(core.Event)) (*evaluation, error) {
	seed := subSeed(e.seed, i)
	rng := rand.New(rand.NewSource(seed))
	ev := &evaluation{}
	t0 := time.Now()
	locked, key, err := core.LockWithCtx(ctx, e.design, hardenKeySize, nil, rng)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	steps := synth.AllSteps()
	for _, j := range rng.Perm(len(steps)) {
		ev.recipe = append(ev.recipe, steps[j])
	}
	net := ev.recipe.Apply(locked)
	cfg := smokeConfig(seed)
	var opts []core.Option
	if observe != nil {
		opts = append(opts, core.WithObserver(observe))
	}
	proxy, err := core.TrainProxyCtx(ctx, locked, core.ModelResyn2, synth.Resyn2(), cfg, opts...)
	if err != nil {
		return nil, err
	}
	ev.accs = append(ev.accs, proxy.Attack.AccuracyBatch(net, key))
	for _, name := range evalAttacks {
		atk, ok := core.LookupAttacker(name)
		if !ok {
			return nil, fmt.Errorf("attack %q is not registered", name)
		}
		a0 := time.Now()
		acc, err := atk.AttackCtx(ctx, net, key, core.WithRecipe(ev.recipe))
		if err != nil {
			return nil, err
		}
		ev.attackS += time.Since(a0).Seconds()
		ev.accs = append(ev.accs, acc)
	}
	ev.totalS = time.Since(t0).Seconds()
	ev.lockS = t1.Sub(t0).Seconds()
	ev.locked, ev.net, ev.key = locked, net, key
	return ev, nil
}

// digest identifies the operation's outputs.
func (ev *evaluation) digest() (string, error) {
	text, err := netio.WriteBenchString(ev.net)
	if err != nil {
		return "", err
	}
	return digest(ev.recipe.String(), ev.key.String(), text, fmt.Sprint(ev.accs)), nil
}

// check verifies that the synthesized netlist is the design under its
// key and records the outputs.
func (e *evalInst) check(ctx context.Context, evs []*evaluation, det *detStore, prefix string) []string {
	var problems []string
	for i, ev := range evs {
		eq, _, err := cnf.EquivalentUnderKeyCtx(ctx, e.design, ev.net, ev.key)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if !eq {
			problems = append(problems, fmt.Sprintf("operation %d: netlist is not equivalent to the design under its key", i))
			continue
		}
		d, err := ev.digest()
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		det.record(fmt.Sprintf("%sop%d", prefix, i), d)
	}
	return problems
}

func (e *evalInst) run(ctx context.Context, d time.Duration) (*runResult, error) {
	res := &runResult{}
	var evs []*evaluation
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		ev, err := e.op(ctx, i, nil)
		if err != nil {
			return nil, fmt.Errorf("operation %d: %w", i, err)
		}
		evs = append(evs, ev)
		res.done++
		res.opSeconds = append(res.opSeconds, ev.totalS)
		res.lockSeconds = append(res.lockSeconds, ev.lockS)
		res.attackSeconds = append(res.attackSeconds, ev.attackS)
	}
	res.check = func(ctx context.Context, det *detStore) []string { return e.check(ctx, evs, det, "") }
	return res, nil
}

func (e *evalInst) trace(ctx context.Context, det *detStore) (*traceResult, error) {
	tr := &traceResult{metrics: map[string]metric{}}
	var plain, traced []*evaluation
	var plainS, tracedS []float64
	for pass := 0; pass < 2; pass++ {
		var observe func(core.Event)
		if pass == 1 {
			var evs []stampedEvent
			observe = func(ev core.Event) { evs = append(evs, stampedEvent{time.Now(), ev}) }
		}
		for i := 0; i < evalTraceOps; i++ {
			ev, err := e.op(ctx, i, observe)
			if err != nil {
				return nil, err
			}
			if pass == 0 {
				plain, plainS = append(plain, ev), append(plainS, ev.totalS)
			} else {
				traced, tracedS = append(traced, ev), append(tracedS, ev.totalS)
			}
		}
	}
	tr.attempted = 2 * evalTraceOps
	tr.metrics["trace.overhead_ratio"] = metric{mean(tracedS) / mean(plainS), "ratio"}
	for i := range traced {
		da, err := plain[i].digest()
		if err != nil {
			return nil, err
		}
		db, err := traced[i].digest()
		if err != nil {
			return nil, err
		}
		if da != db {
			tr.failed++
			tr.problems = append(tr.problems, fmt.Sprintf("operation %d: traced outputs %s differ from untraced %s", i, db, da))
		}
	}
	problems := e.check(ctx, traced, det, "trace/")
	tr.failed += len(problems)
	tr.problems = append(tr.problems, problems...)

	probe, err := startServer(ctx)
	if err != nil {
		return nil, err
	}
	defer probe.close()
	lockSpec := lockJobSpec(subSeed(e.seed, 0))
	jr := serveJob(ctx, probe.clients[0], lockSpec)
	tr.attempted++
	if jr.err != nil {
		tr.failed++
		tr.problems = append(tr.problems, jr.err.Error())
	}
	sat := []satInput{{locked: traced[0].locked, key: traced[0].key}}
	return tr, traceHardening(ctx, tr, e.design, e.seed, probe, []*jobRecord{jr}, sat, det)
}
