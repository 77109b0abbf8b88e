package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/cnf"
	"github.com/nyu-secml/almost/internal/core"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/netio"
	"github.com/nyu-secml/almost/internal/service"
	"github.com/nyu-secml/almost/internal/synth"
	"github.com/nyu-secml/almost/internal/techmap"
)

// The hardening every traced run performs: the pipeline flow on c432
// with a 16-bit RLL key at the service's smoke effort, searching against
// the OMLA proxy and evaluating scope and redundancy on resyn2 vs ALMOST.
const (
	hardenCircuit = "c432"
	hardenKeySize = 16
	// parallelism is the engine worker budget; the load is sized for a
	// 2-CPU host.
	parallelism = 2
)

var evalAttacks = []string{"scope", "redundancy"}

// hardenSpec is the served form of a hardening: service.RunSpec runs
// exactly the staged flow harden times.
func hardenSpec(seed int64) service.JobSpec {
	return service.JobSpec{Kind: service.KindPipeline, Circuit: hardenCircuit, KeySize: hardenKeySize,
		Seed: seed, Effort: service.EffortSmoke, Attacks: evalAttacks, Parallelism: parallelism}
}

// smokeConfig mirrors the service's smoke effort tier.
func smokeConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Attack.Epochs = 2
	cfg.Attack.Rounds = 1
	cfg.Attack.GatesPerRound = 8
	cfg.Attack.Hops = 1
	cfg.Attack.Hidden = 8
	cfg.Attack.Layers = 1
	cfg.SA.Iterations = 2
	cfg.SAProposals = 2
	cfg.AdvPeriod = 1
	cfg.AdvGates = 4
	cfg.AdvSAIters = 1
	cfg.RecipeLen = 5
	cfg.Seed = seed
	cfg.Parallelism = parallelism
	return cfg
}

// loadDesign reads a built-in benchmark from its BENCH text, as a user
// loading a netlist file would.
func loadDesign(name string) (*aig.AIG, error) {
	text, err := circuits.GoldenBench(name)
	if err != nil {
		return nil, err
	}
	return netio.ParseBenchString(text)
}

// attackOutcome is one evaluation attack on the baseline and on the
// hardened netlist.
type attackOutcome struct{ baseline, hard float64 }

// hardening is the outcome of one end-to-end hardening.
type hardening struct {
	seed     int64
	design   *aig.AIG
	locked   *aig.AIG
	baseline *aig.AIG // resyn2 of locked
	net      *aig.AIG // S_ALMOST of locked
	key      lock.Key
	recipe   synth.Recipe
	proxyAcc float64
	attacks  []attackOutcome

	// Wall times of the stages (the spans of a traced run).
	lockS, trainS, searchS, synthS, totalS float64
	attackS                                []float64
	trainStart, searchStart                time.Time
	events                                 []stampedEvent
}

// stampedEvent is an observer event with its arrival time.
type stampedEvent struct {
	at time.Time
	ev core.Event
}

// harden runs hardening i as the pipeline does: LockWithCtx →
// TrainProxyCtx → SearchRecipeCtx → Recipe.Apply (exactly
// SecureSynthesisCtx), then the evaluation attacks on the resyn2
// baseline and on the hardened netlist. A non-nil observer traces it.
func harden(ctx context.Context, design *aig.AIG, seed int64, observe func(core.Event)) (*hardening, error) {
	cfg := smokeConfig(seed)
	var opts []core.Option
	if observe != nil {
		opts = append(opts, core.WithObserver(observe))
	}
	h := &hardening{seed: seed, design: design}
	t0 := time.Now()
	locked, key, err := core.LockWithCtx(ctx, design, hardenKeySize, cfg.Lockers, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	proxy, err := core.TrainProxyCtx(ctx, locked, core.ModelAdversarial, synth.Resyn2(), cfg, opts...)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	search, err := core.SearchRecipeCtx(ctx, locked, key, proxy, cfg, opts...)
	if err != nil {
		return nil, err
	}
	t3 := time.Now()
	net := search.Recipe.Apply(locked)
	t4 := time.Now()
	resyn := synth.Resyn2()
	baseline := resyn.Apply(locked)
	for _, name := range evalAttacks {
		atk, ok := core.LookupAttacker(name)
		if !ok {
			return nil, fmt.Errorf("attack %q is not registered", name)
		}
		a0 := time.Now()
		base, err := atk.AttackCtx(ctx, baseline, key, core.WithRecipe(resyn))
		if err != nil {
			return nil, err
		}
		a1 := time.Now()
		hard, err := atk.AttackCtx(ctx, net, key, core.WithRecipe(search.Recipe))
		if err != nil {
			return nil, err
		}
		h.attackS = append(h.attackS, a1.Sub(a0).Seconds(), time.Since(a1).Seconds())
		h.attacks = append(h.attacks, attackOutcome{baseline: base, hard: hard})
	}
	h.totalS = time.Since(t0).Seconds()
	h.lockS, h.trainS, h.searchS, h.synthS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds(), t4.Sub(t3).Seconds()
	h.trainStart, h.searchStart = t1, t2
	h.locked, h.baseline, h.net, h.key = locked, baseline, net, key
	h.recipe, h.proxyAcc = search.Recipe, search.Accuracy
	return h, nil
}

// digest identifies the hardening's outputs: recipe, key and the BENCH
// text of the hardened netlist.
func (h *hardening) digest() (string, error) {
	text, err := netio.WriteBenchString(h.net)
	if err != nil {
		return "", err
	}
	return digest(h.recipe.String(), h.key.String(), text), nil
}

// quality is the outcome of one hardening, deterministic for a seed.
type quality struct {
	digest string // recipe, key, netlist, accuracies and quality
	// proxyPct is the headline search accuracy, attackPct the worst
	// evaluation-attack accuracy on the hardened netlist (both folded
	// around 50%: an attacker below 50% flips its guesses).
	proxyPct, attackPct   float64
	areaRatio, delayRatio float64
}

// folded maps an accuracy in [0,1] to the percentage an attacker gets
// after flipping a below-chance guess: 50 + |100·acc − 50|.
func folded(acc float64) float64 { return 50 + math.Abs(acc*100-50) }

// verify checks that the hardened netlist is the design under its key
// and measures its quality against the resyn2 baseline. It returns the
// cost of the equivalence check and of one technology mapping.
func (h *hardening) verify(ctx context.Context) (q quality, equivMs, mapMs float64, err error) {
	t0 := time.Now()
	eq, _, err := cnf.EquivalentUnderKeyCtx(ctx, h.design, h.net, h.key)
	if err != nil {
		return quality{}, 0, 0, err
	}
	t1 := time.Now()
	lib := techmap.NanGate45()
	base := techmap.Map(h.baseline, lib, techmap.EffortNone)
	hard := techmap.Map(h.net, lib, techmap.EffortNone)
	equivMs, mapMs = ms(t1.Sub(t0)), ms(time.Since(t1))/2
	if !eq {
		return quality{}, 0, 0, fmt.Errorf("hardening %d: netlist is not equivalent to the design under its key", h.seed)
	}
	d, err := h.digest()
	if err != nil {
		return quality{}, 0, 0, err
	}
	q = quality{proxyPct: folded(h.proxyAcc), areaRatio: hard.Area / base.Area, delayRatio: hard.Delay / base.Delay}
	for _, a := range h.attacks {
		q.attackPct = max(q.attackPct, folded(a.hard))
	}
	q.digest = digest(d, fmt.Sprint(h.attacks), fmt.Sprint(q.proxyPct, q.attackPct, q.areaRatio, q.delayRatio))
	return q, equivMs, mapMs, nil
}
