package circuits

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/nyu-secml/almost/internal/aig"
)

// RandomCircuit generates a random combinational AIG with the given
// interface, deterministically from rng. Gate fanins are drawn with a
// recency bias (geometric-ish preference for recent nodes) so the
// circuit gets depth instead of degenerating into a shallow forest, and
// each output is driven from the deeper half of the structure with a
// random polarity. Used by the cross-scheme scenario fuzzer, which needs
// arbitrary circuit shapes rather than the fixed ISCAS85 profiles.
func RandomCircuit(rng *rand.Rand, nInputs, nOutputs, nGates int) *aig.AIG {
	if nInputs < 1 || nOutputs < 1 {
		panic(fmt.Sprintf("circuits: RandomCircuit needs at least 1 input and 1 output (got %d, %d)", nInputs, nOutputs))
	}
	g := aig.New()
	pool := make([]aig.Lit, 0, nInputs+nGates)
	for i := 0; i < nInputs; i++ {
		pool = append(pool, g.AddInput(fmt.Sprintf("in%d", i)))
	}
	pick := func() aig.Lit {
		// Recency bias: half the draws come from the most recent third.
		var idx int
		if rng.Intn(2) == 0 && len(pool) > 3 {
			idx = len(pool) - 1 - rng.Intn(len(pool)/3+1)
		} else {
			idx = rng.Intn(len(pool))
		}
		return pool[idx].NotIf(rng.Intn(2) == 1)
	}
	for i := 0; i < nGates; i++ {
		n := g.And(pick(), pick())
		pool = append(pool, n)
	}
	for o := 0; o < nOutputs; o++ {
		// Draw outputs from the deeper half so they see real logic, but
		// fall back to anything when the pool is tiny.
		lo := len(pool) / 2
		l := pool[lo+rng.Intn(len(pool)-lo)].NotIf(rng.Intn(2) == 1)
		g.AddOutput(l, fmt.Sprintf("out%d", o))
	}
	return g
}

// DepthProfile shapes the fanin-selection bias of RandomCircuitProfile.
type DepthProfile int

// Depth profiles for sized synthetic benchmarks.
const (
	// DepthMixed uses RandomCircuit's recency bias: realistic mid-depth
	// structure, neither chain nor forest.
	DepthMixed DepthProfile = iota
	// DepthDeep chains one fanin through the most recent nodes, producing
	// depth proportional to the gate count — worst case for levelized
	// simulation and schedule length.
	DepthDeep
	// DepthWide draws both fanins uniformly, producing logarithmic depth
	// and massive width — worst case for frontier size and fanout counts.
	DepthWide
)

// String names the profile for benchmark labels.
func (p DepthProfile) String() string {
	switch p {
	case DepthMixed:
		return "mixed"
	case DepthDeep:
		return "deep"
	case DepthWide:
		return "wide"
	}
	return fmt.Sprintf("DepthProfile(%d)", int(p))
}

// RandomCircuitProfile generates a random combinational AIG with
// (at least) targetGates AND nodes, deterministically from rng. Unlike
// RandomCircuit, whose gate count undershoots its argument when
// structural hashing folds duplicate draws, this generator keeps drawing
// until the structural gate count reaches the target — a sized synthetic
// benchmark must have the gate count its name says. The depth profile picks the fanin bias; see the DepthProfile
// constants. RandomCircuit is left untouched so the scenario fuzzer's
// seed streams stay stable.
func RandomCircuitProfile(rng *rand.Rand, nInputs, nOutputs, targetGates int, profile DepthProfile) *aig.AIG {
	if nInputs < 2 || nOutputs < 1 {
		panic(fmt.Sprintf("circuits: RandomCircuitProfile needs at least 2 inputs and 1 output (got %d, %d)", nInputs, nOutputs))
	}
	g := aig.New()
	pool := make([]aig.Lit, 0, nInputs+targetGates)
	for i := 0; i < nInputs; i++ {
		pool = append(pool, g.AddInput(fmt.Sprintf("in%d", i)))
	}
	uniform := func() aig.Lit {
		return pool[rng.Intn(len(pool))].NotIf(rng.Intn(2) == 1)
	}
	recent := func(window int) aig.Lit {
		if window > len(pool) {
			window = len(pool)
		}
		return pool[len(pool)-1-rng.Intn(window)].NotIf(rng.Intn(2) == 1)
	}
	draw := func() (aig.Lit, aig.Lit) {
		switch profile {
		case DepthDeep:
			// One fanin rides the frontier, so levels accumulate.
			return recent(4), uniform()
		case DepthWide:
			return uniform(), uniform()
		default:
			a := uniform()
			if rng.Intn(2) == 0 && len(pool) > 3 {
				a = recent(len(pool)/3 + 1)
			}
			return a, uniform()
		}
	}
	// Folded draws (strash hits, constants) don't count toward the
	// target; the budget bounds pathological rng streams instead of
	// looping forever.
	for budget := 4*targetGates + 64; g.NumAnds() < targetGates && budget > 0; budget-- {
		before := g.NumAnds()
		n := g.And(draw())
		if g.NumAnds() > before {
			pool = append(pool, n)
		}
	}
	for o := 0; o < nOutputs; o++ {
		lo := len(pool) / 2
		l := pool[lo+rng.Intn(len(pool)-lo)].NotIf(rng.Intn(2) == 1)
		g.AddOutput(l, fmt.Sprintf("out%d", o))
	}
	return g
}

// syntheticProfile is one registered sized benchmark.
type syntheticProfile struct {
	inputs, outputs, gates int
	profile                DepthProfile
	seed                   int64
}

// synthetics registers the sized synthetic presets by name, resolvable
// through Generate exactly like the ISCAS85 built-ins. Sizes span three
// decades so size-dependent costs (simulation, synthesis) can be measured
// well beyond the ISCAS85 range; seeds are fixed so a preset is one
// reproducible circuit, not a family.
var synthetics = map[string]syntheticProfile{
	"rand10k":  {inputs: 64, outputs: 32, gates: 10_000, profile: DepthMixed, seed: 0xA15},
	"rand100k": {inputs: 128, outputs: 64, gates: 100_000, profile: DepthMixed, seed: 0xA16},
	"rand1m":   {inputs: 512, outputs: 128, gates: 1_000_000, profile: DepthMixed, seed: 0xA17},
}

// syntheticCache holds the lazily generated presets (same
// once-then-clone discipline as the embedded goldens).
var syntheticCache = func() map[string]*golden {
	m := make(map[string]*golden, len(synthetics))
	for name := range synthetics {
		m[name] = &golden{}
	}
	return m
}()

// SyntheticNames returns the registered sized synthetic benchmarks in
// ascending size order. They are deliberately not part of Names():
// suites that sweep "all built-ins" must not pull a million-gate
// netlist into every run.
func SyntheticNames() []string {
	names := make([]string, 0, len(synthetics))
	for name := range synthetics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		return synthetics[names[i]].gates < synthetics[names[j]].gates
	})
	return names
}

// SyntheticGates returns the registered target gate count of a synthetic
// preset name.
func SyntheticGates(name string) (int, bool) {
	p, ok := synthetics[name]
	return p.gates, ok
}

// generateSynthetic resolves a sized synthetic preset, generating it on
// first use and cloning the cached copy afterwards.
func generateSynthetic(name string) (*aig.AIG, bool) {
	gl, ok := syntheticCache[name]
	if !ok {
		return nil, false
	}
	gl.once.Do(func() {
		p := synthetics[name]
		gl.g = RandomCircuitProfile(rand.New(rand.NewSource(p.seed)), p.inputs, p.outputs, p.gates, p.profile)
	})
	return gl.g.Clone(), true
}
