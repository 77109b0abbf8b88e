package core

import (
	"math/rand"
	"testing"

	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/engine"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/synth"
)

// identityRecipes is a prefix-sharing pair plus the baseline: the shapes
// the annealer actually produces, so the chained path exercises both a
// reused prefix and a divergence point on every circuit.
func identityRecipes() []synth.Recipe {
	base := synth.Resyn2()
	mut := base.Clone()
	mut[len(mut)/2] = synth.StepBalance
	return []synth.Recipe{base, mut, {synth.StepRewrite, synth.StepResub, synth.StepBalance}}
}

// TestPrefixChainDigestIdentityAllBuiltins is the bit-identity sweep for
// candidate evaluation: on every built-in benchmark, locked and
// unlocked, synthesizing a chain of recipes through one engine scratch
// (which resumes each recipe from the longest prefix it shares with the
// previous one) must produce netlists structurally identical
// (digest-for-digest) to running each recipe on a fresh clone.
func TestPrefixChainDigestIdentityAllBuiltins(t *testing.T) {
	names := circuits.Names()
	if testing.Short() {
		names = names[:4]
	}
	rs := identityRecipes()
	for _, name := range names {
		for _, locked := range []bool{false, true} {
			g := circuits.MustGenerate(name)
			if locked {
				g, _ = lock.Lock(g, 8, rand.New(rand.NewSource(41)))
			}
			chained := engine.NewScratch(g)
			for ri, r := range rs {
				nc := chained.Synth(r)
				if nc.StructuralDigest() != r.Run(g.Clone(), nil).StructuralDigest() {
					t.Fatalf("%s locked=%v recipe %d: prefix-chained and fresh runs diverged", name, locked, ri)
				}
				chained.Release(nc)
			}
		}
	}
}
