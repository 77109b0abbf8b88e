package omla

import (
	"math/rand"
	"testing"

	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/subgraph"
	"github.com/nyu-secml/almost/internal/synth"
)

func TestGenerateDataShapes(t *testing.T) {
	g := circuits.MustGenerate("c432")
	locked, _ := lock.Lock(g, 8, rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(2))
	data := GenerateData(locked, func(int) synth.Recipe { return synth.Resyn2() },
		3, 10, subgraph.DefaultExtractor(), rng)
	if len(data) != 30 {
		t.Fatalf("samples = %d, want 30", len(data))
	}
	zeros, ones := 0, 0
	for _, d := range data {
		switch d.Label {
		case 0:
			zeros++
		case 1:
			ones++
		default:
			t.Fatalf("bad label %d", d.Label)
		}
	}
	if zeros == 0 || ones == 0 {
		t.Fatalf("degenerate label distribution: %d/%d", zeros, ones)
	}
}

func TestGenerateDataUsesRecipePerRound(t *testing.T) {
	g := circuits.MustGenerate("c432")
	locked, _ := lock.Lock(g, 4, rand.New(rand.NewSource(3)))
	var rounds []int
	GenerateData(locked, func(r int) synth.Recipe {
		rounds = append(rounds, r)
		return synth.Recipe{synth.StepBalance}
	}, 4, 5, subgraph.DefaultExtractor(), rand.New(rand.NewSource(4)))
	if len(rounds) != 4 || rounds[3] != 3 {
		t.Fatalf("rounds = %v", rounds)
	}
}

func TestTrainedAttackBeatsRandomGuessing(t *testing.T) {
	// The central claim of the OMLA substrate: on a vulnerable RLL +
	// deterministic-recipe netlist, the attack recovers well over 50% of
	// key bits. -short trims the circuit and training budget and only
	// checks the attack is non-degenerate; the paper-scale bar needs the
	// full run.
	bench, keySize, minAcc := "c1908", 64, 0.55
	cfg := DefaultConfig()
	if testing.Short() {
		bench, keySize, minAcc = "c880", 32, 0.40
		cfg.Rounds = 3
		cfg.Epochs = 8
	}
	g := circuits.MustGenerate(bench)
	locked, key := lock.Lock(g, keySize, rand.New(rand.NewSource(5)))
	recipe := synth.Resyn2()
	target := recipe.Apply(locked)
	atk := Train(target, recipe, cfg)
	acc := atk.AccuracyBatch(target, key)
	if acc < minAcc {
		t.Fatalf("attack accuracy %.2f%% — want at least %.0f%%", acc*100, minAcc*100)
	}
	t.Logf("OMLA accuracy on %s/resyn2: %.2f%%", bench, acc*100)
}

func TestPredictKeyLengthAndDeterminism(t *testing.T) {
	g := circuits.MustGenerate("c432")
	locked, _ := lock.Lock(g, 12, rand.New(rand.NewSource(6)))
	cfg := DefaultConfig()
	cfg.Rounds = 2
	cfg.Epochs = 3
	atk := Train(locked, synth.Recipe{synth.StepBalance}, cfg)
	k1 := atk.PredictKeyBatchWith(nil, locked)
	k2 := atk.PredictKeyBatchWith(nil, locked)
	if len(k1) != 12 {
		t.Fatalf("predicted key length %d", len(k1))
	}
	if k1.String() != k2.String() {
		t.Fatalf("prediction not deterministic")
	}
}

// TestPredictKeyIndicesSubset checks that the packed graphs of a batch
// are scored independently: predicting a subset of the key inputs gives
// exactly the corresponding probabilities of the full-key pass.
func TestPredictKeyIndicesSubset(t *testing.T) {
	g := circuits.MustGenerate("c432")
	locked, _ := lock.Lock(g, 8, rand.New(rand.NewSource(7)))
	cfg := DefaultConfig()
	cfg.Rounds = 2
	cfg.Epochs = 3
	atk := Train(locked, synth.Recipe{synth.StepBalance}, cfg)
	kis := locked.KeyInputIndices()
	var sc subgraph.Scratch
	full := atk.Model.PredictProbBatchWith(nil, atk.Ext.AllInto(&sc, locked, nil), nil)
	sub := atk.Model.PredictProbBatchWith(nil, atk.Ext.ForKeyInputsInto(&sc, locked, kis[2:5], nil), nil)
	for i, p := range sub {
		if p != full[2+i] {
			t.Fatalf("subset prediction differs at %d: %v vs %v", i, p, full[2+i])
		}
	}
}

func TestTrainingIsDeterministicForSeed(t *testing.T) {
	g := circuits.MustGenerate("c432")
	locked, key := lock.Lock(g, 16, rand.New(rand.NewSource(8)))
	cfg := DefaultConfig()
	cfg.Rounds = 2
	cfg.Epochs = 5
	a1 := Train(locked, synth.Resyn2(), cfg)
	a2 := Train(locked, synth.Resyn2(), cfg)
	if a1.AccuracyBatch(locked, key) != a2.AccuracyBatch(locked, key) {
		t.Fatalf("training not deterministic")
	}
}
