package omla

import (
	"math/rand"
	"testing"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/synth"
)

// tinyAttack trains a small but real attacker for identity checks.
func tinyAttack(t testing.TB, locked *aig.AIG) *Attack {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Rounds = 2
	cfg.GatesPerRound = 12
	cfg.Epochs = 4
	return Train(locked, synth.Resyn2(), cfg)
}

// TestPredictKeyBatchBitIdentity gates the fused attack pass: the key
// predicted over one batch of every key gate must equal scoring each key
// gate as a batch of one, and the fused accuracy must equal
// lock.Accuracy over that key — exactly, across scratch reuse and
// circuit swaps.
func TestPredictKeyBatchBitIdentity(t *testing.T) {
	g1, key1 := lock.Lock(circuits.MustGenerate("c432"), 16, rand.New(rand.NewSource(1)))
	g2, key2 := lock.Lock(circuits.MustGenerate("c880"), 24, rand.New(rand.NewSource(2)))
	atk := tinyAttack(t, g1)
	var bs BatchScratch
	var one BatchScratch
	for round := 0; round < 2; round++ {
		for _, tc := range []struct {
			g     *aig.AIG
			truth lock.Key
		}{{g1, key1}, {g2, key2}} {
			batchKey := atk.PredictKeyBatchWith(&bs, tc.g)
			kis := tc.g.KeyInputIndices()
			if len(batchKey) != len(kis) {
				t.Fatalf("batched key has %d bits, want %d", len(batchKey), len(kis))
			}
			for i, ki := range kis {
				b := atk.Ext.ForKeyInputsInto(&one.Sub, tc.g, []int{ki}, nil)
				p := atk.Model.PredictProbBatchWith(&one.NN, b, nil)[0]
				if batchKey[i] != (p >= 0.5) {
					t.Fatalf("round %d: key bit %d differs from its batch of one", round, i)
				}
			}
			if got, want := atk.AccuracyBatchWith(&bs, tc.g, tc.truth), lock.Accuracy(tc.truth, batchKey); got != want {
				t.Fatalf("round %d: fused accuracy %v != lock.Accuracy %v", round, got, want)
			}
		}
	}
	// A nil scratch agrees too.
	if got, want := atk.AccuracyBatch(g1, key1), atk.AccuracyBatchWith(&bs, g1, key1); got != want {
		t.Fatalf("nil-scratch accuracy %v != %v", got, want)
	}
	if got, want := atk.PredictKeyBatchWith(nil, g1), atk.PredictKeyBatchWith(&bs, g1); got.String() != want.String() {
		t.Fatalf("nil-scratch key %s != %s", got, want)
	}
}

// TestAccuracyBatchAllocs gates the steady state of the fused scoring
// path the engine workers run per candidate: zero allocations with a
// warm BatchScratch.
func TestAccuracyBatchAllocs(t *testing.T) {
	locked, key := lock.Lock(circuits.MustGenerate("c880"), 32, rand.New(rand.NewSource(3)))
	atk := tinyAttack(t, locked)
	var bs BatchScratch
	atk.AccuracyBatchWith(&bs, locked, key) // warm
	allocs := testing.AllocsPerRun(20, func() {
		atk.AccuracyBatchWith(&bs, locked, key)
	})
	if allocs != 0 {
		t.Fatalf("fused accuracy steady state allocates %.1f per run, want 0", allocs)
	}
}
