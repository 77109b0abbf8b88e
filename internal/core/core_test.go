package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/attack/omla"
	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/cnf"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/synth"
)

// trainProxyT, searchT, and hardenT run the Ctx entry points with a
// background context, failing the test on any error — the test-side
// replacement for the retired panic-era wrappers.
func trainProxyT(t testing.TB, locked *aig.AIG, kind ModelKind, cfg Config) *Proxy {
	t.Helper()
	p, err := TrainProxyCtx(context.Background(), locked, kind, synth.Resyn2(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func searchT(t testing.TB, locked *aig.AIG, key lock.Key, proxy *Proxy, cfg Config) SearchResult {
	t.Helper()
	res, err := SearchRecipeCtx(context.Background(), locked, key, proxy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func hardenT(t testing.TB, g *aig.AIG, keySize int, cfg Config) *Hardened {
	t.Helper()
	h, err := SecureSynthesisCtx(context.Background(), g, keySize, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// tinyConfig keeps unit-test runtime low while exercising every code path
// (including adversarial augmentation and batched proposal evaluation).
// In -short mode the loop counts shrink further; every assertion in this
// file is iteration-count-agnostic, so coverage is preserved.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Attack.Rounds = 2
	cfg.Attack.GatesPerRound = 12
	cfg.Attack.Epochs = 6
	cfg.AdvPeriod = 3
	cfg.AdvGates = 8
	cfg.AdvSAIters = 3
	cfg.SA.Iterations = 6
	cfg.SAProposals = 2
	if testing.Short() {
		cfg.Attack.Rounds = 1
		cfg.Attack.Epochs = 4
		cfg.AdvPeriod = 2
		cfg.AdvGates = 6
		cfg.AdvSAIters = 2
		cfg.SA.Iterations = 3
		cfg.RecipeLen = 5 // halves the cost of every synthesis evaluation
	}
	return cfg
}

func TestModelKindString(t *testing.T) {
	if ModelResyn2.String() != "M^resyn2" || ModelRandom.String() != "M^random" ||
		ModelAdversarial.String() != "M*" {
		t.Fatal("model kind names drifted from the paper")
	}
}

// andFreeNetlist wires every input straight to an output: a netlist with
// no AND gate, on which relocking places no key gates at all.
func andFreeNetlist() *aig.AIG {
	g := aig.New()
	for i := 0; i < 4; i++ {
		g.AddOutput(g.AddInput(fmt.Sprintf("i%d", i)).NotIf(i%2 == 1), fmt.Sprintf("o%d", i))
	}
	return g
}

// TestTrainProxyAllKinds trains every proxy kind on a locked c432 and on
// an AND-free netlist. On the latter every Eq. 3 candidate scores an
// empty batch of relocked localities, whose loss must be 0, not NaN.
func TestTrainProxyAllKinds(t *testing.T) {
	g := circuits.MustGenerate("c432")
	locked, key := lock.Lock(g, 8, rand.New(rand.NewSource(1)))
	cfg := tinyConfig()
	for _, tc := range []struct {
		name string
		net  *aig.AIG
		key  lock.Key
	}{{"c432", locked, key}, {"and-free", andFreeNetlist(), nil}} {
		for _, kind := range []ModelKind{ModelResyn2, ModelRandom, ModelAdversarial} {
			var energies []float64
			observe := WithObserver(func(ev Event) {
				if ev.Phase == PhaseAdvSearch {
					energies = append(energies, ev.Energy, ev.BestEnergy)
				}
			})
			p, err := TrainProxyCtx(context.Background(), tc.net, kind, synth.Resyn2(), cfg, observe)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, kind, err)
			}
			if p.Kind != kind || p.Attack == nil {
				t.Fatalf("%s %v: bad proxy", tc.name, kind)
			}
			acc := p.EstimateAccuracy(tc.net, synth.Resyn2(), tc.key)
			if acc < 0 || acc > 1 {
				t.Fatalf("%s %v: accuracy %v out of range", tc.name, kind, acc)
			}
			if kind == ModelAdversarial && len(energies) == 0 {
				t.Fatalf("%s: no adversarial-search events", tc.name)
			}
			for _, e := range energies {
				if math.IsNaN(e) {
					t.Fatalf("%s %v: adversarial-search energies %v contain NaN", tc.name, kind, energies)
				}
			}
		}
	}
}

func TestAdversarialTrainingAugmentsData(t *testing.T) {
	// With AdvPeriod=3 and 6 epochs, augmentation must fire at epoch 3.
	// We verify indirectly: adversarial training must differ from a pure
	// random-data model trained with identical seeds when augmentation is
	// enabled vs disabled.
	g := circuits.MustGenerate("c432")
	locked, key := lock.Lock(g, 8, rand.New(rand.NewSource(2)))
	cfg := tinyConfig()
	pAdv := trainProxyT(t, locked, ModelAdversarial, cfg)
	cfgOff := cfg
	cfgOff.AdvPeriod = 0 // disables augmentation
	pOff := trainProxyT(t, locked, ModelAdversarial, cfgOff)
	r := synth.Resyn2()
	// Not a strict inequality requirement — just confirm the two training
	// regimes are distinguishable (different predictions somewhere).
	same := pAdv.EstimateAccuracy(locked, r, key) == pOff.EstimateAccuracy(locked, r, key)
	r2 := synth.RandomRecipe(rand.New(rand.NewSource(3)), cfg.RecipeLen)
	same = same && pAdv.EstimateAccuracy(locked, r2, key) == pOff.EstimateAccuracy(locked, r2, key)
	if same {
		t.Log("warning: augmented and unaugmented models agree on both probes (possible for tiny configs)")
	}
}

func TestSearchRecipeReturnsTraceAndRecipe(t *testing.T) {
	g := circuits.MustGenerate("c432")
	locked, key := lock.Lock(g, 8, rand.New(rand.NewSource(4)))
	cfg := tinyConfig()
	proxy := trainProxyT(t, locked, ModelResyn2, cfg)
	res := searchT(t, locked, key, proxy, cfg)
	if len(res.Recipe) != cfg.RecipeLen {
		t.Fatalf("recipe length = %d", len(res.Recipe))
	}
	if len(res.Trace) == 0 || len(res.Trace) > cfg.SA.Iterations {
		t.Fatalf("trace length = %d", len(res.Trace))
	}
	for _, tp := range res.Trace {
		if tp.Accuracy < 0 || tp.Accuracy > 1 {
			t.Fatalf("trace accuracy %v out of range", tp.Accuracy)
		}
	}
	if res.Accuracy < 0 || res.Accuracy > 1 {
		t.Fatalf("result accuracy %v", res.Accuracy)
	}
}

// TestSearchRecipeJobsInvariant is the engine's determinism contract:
// the search trajectory must be bit-for-bit identical whether candidates
// are evaluated by one worker or by eight concurrently.
func TestSearchRecipeJobsInvariant(t *testing.T) {
	g := circuits.MustGenerate("c432")
	locked, key := lock.Lock(g, 8, rand.New(rand.NewSource(9)))
	cfg := tinyConfig()
	proxy := trainProxyT(t, locked, ModelResyn2, cfg)

	cfg.Parallelism = 1
	serial := searchT(t, locked, key, proxy, cfg)
	cfg.Parallelism = 8
	parallel := searchT(t, locked, key, proxy, cfg)

	if !serial.Recipe.Equal(parallel.Recipe) {
		t.Fatalf("jobs=1 and jobs=8 found different recipes:\n  %s\n  %s",
			serial.Recipe, parallel.Recipe)
	}
	if serial.Accuracy != parallel.Accuracy {
		t.Fatalf("accuracy differs: %v vs %v", serial.Accuracy, parallel.Accuracy)
	}
	if len(serial.Trace) != len(parallel.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(serial.Trace), len(parallel.Trace))
	}
	for i := range serial.Trace {
		if serial.Trace[i].Accuracy != parallel.Trace[i].Accuracy ||
			!serial.Trace[i].Recipe.Equal(parallel.Trace[i].Recipe) {
			t.Fatalf("trace diverges at iteration %d", i)
		}
	}
}

// TestSecureSynthesisJobsInvariant extends the invariance check to the
// full pipeline (adversarial training's Eq. 3 searches included).
func TestSecureSynthesisJobsInvariant(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full-pipeline invariance check in -short mode or under -race")
	}
	g := circuits.MustGenerate("c432")
	cfg := tinyConfig()
	cfg.Parallelism = 1
	h1 := hardenT(t, g, 8, cfg)
	cfg.Parallelism = 4
	h4 := hardenT(t, g, 8, cfg)
	if !h1.Recipe.Equal(h4.Recipe) {
		t.Fatalf("jobs=1 and jobs=4 pipelines diverged:\n  %s\n  %s", h1.Recipe, h4.Recipe)
	}
	if h1.Search.Accuracy != h4.Search.Accuracy {
		t.Fatalf("accuracy differs: %v vs %v", h1.Search.Accuracy, h4.Search.Accuracy)
	}
}

func TestSearchIsDeterministic(t *testing.T) {
	g := circuits.MustGenerate("c432")
	locked, key := lock.Lock(g, 8, rand.New(rand.NewSource(5)))
	cfg := tinyConfig()
	proxy := trainProxyT(t, locked, ModelResyn2, cfg)
	r1 := searchT(t, locked, key, proxy, cfg)
	r2 := searchT(t, locked, key, proxy, cfg)
	if !r1.Recipe.Equal(r2.Recipe) || r1.Accuracy != r2.Accuracy {
		t.Fatal("search not deterministic")
	}
}

func TestSecureSynthesisEndToEnd(t *testing.T) {
	// Full pipeline on a small circuit: the hardened netlist must remain
	// functionally correct under the key, and the search must produce a
	// valid recipe.
	g := circuits.MustGenerate("c432")
	cfg := tinyConfig()
	h := hardenT(t, g, 8, cfg)
	if h.Netlist.NumKeyInputs() != 8 || len(h.Key) != 8 {
		t.Fatalf("hardened interface wrong: %v", h.Netlist.Stats())
	}
	if ok, cex, _ := cnf.EquivalentUnderKey(g, h.Netlist, h.Key); !ok {
		t.Fatalf("ALMOST netlist broken under correct key (cex=%v)", cex)
	}
	if len(h.Recipe) != cfg.RecipeLen {
		t.Fatalf("recipe length %d", len(h.Recipe))
	}
	if h.Proxy.Kind != ModelAdversarial {
		t.Fatalf("pipeline must use M*")
	}
	checkGoldenPipeline(t, h)
}

func TestPaperConfigMatchesPaper(t *testing.T) {
	cfg := PaperConfig()
	if cfg.Attack.Rounds*cfg.Attack.GatesPerRound != 1000 {
		t.Errorf("initial samples = %d, want 1000", cfg.Attack.Rounds*cfg.Attack.GatesPerRound)
	}
	if cfg.Attack.Epochs != 350 {
		t.Errorf("epochs = %d, want 350", cfg.Attack.Epochs)
	}
	if cfg.AdvPeriod != 50 {
		t.Errorf("R = %d, want 50", cfg.AdvPeriod)
	}
	if cfg.AdvGates != 200 {
		t.Errorf("adversarial samples = %d, want 200", cfg.AdvGates)
	}
	if cfg.SA.Iterations != 100 || cfg.SA.InitTemp != 120 || cfg.SA.Acceptance != 1.8 {
		t.Errorf("SA schedule drifted: %+v", cfg.SA)
	}
	if cfg.RecipeLen != 10 {
		t.Errorf("L = %d, want 10", cfg.RecipeLen)
	}
}

// TestALMOSTReducesAttackAccuracy is the repository's headline
// integration test: on a mid-size benchmark, an independently trained
// OMLA attacker must do measurably worse against the ALMOST-synthesized
// netlist than against the resyn2-synthesized one.
func TestALMOSTReducesAttackAccuracy(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("multi-minute integration test in -short mode or under -race")
	}
	g := circuits.MustGenerate("c1908")
	locked, key := lock.Lock(g, 64, rand.New(rand.NewSource(1)))

	cfg := DefaultConfig()
	cfg.Attack.Epochs = 20
	// 15 iterations × K=2 proposals keeps the candidate-evaluation budget
	// near this test's historical 25 serial evaluations; the headline
	// claim doesn't need a wide proposal fan-out.
	cfg.SA.Iterations = 15
	cfg.SAProposals = 2
	proxy := trainProxyT(t, locked, ModelAdversarial, cfg)
	res := searchT(t, locked, key, proxy, cfg)

	// Independent attackers (fresh seed, full knowledge of the respective
	// recipe) against both netlists.
	resyn := synth.Resyn2()
	baseNet := resyn.Apply(locked)
	almostNet := res.Recipe.Apply(locked)
	acfg := omla.DefaultConfig()
	acfg.Seed = 12345
	baseAcc := omla.Train(baseNet, resyn, acfg).AccuracyBatch(baseNet, key)
	almostAcc := omla.Train(almostNet, res.Recipe, acfg).AccuracyBatch(almostNet, key)

	t.Logf("c1908: resyn2 %.2f%% vs ALMOST %.2f%%", baseAcc*100, almostAcc*100)
	if almostAcc >= baseAcc {
		t.Fatalf("ALMOST did not reduce attack accuracy: %.2f%% -> %.2f%%",
			baseAcc*100, almostAcc*100)
	}
}
