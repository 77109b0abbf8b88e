package circuits

import (
	"math/rand"
	"testing"

	"github.com/nyu-secml/almost/internal/aig"
)

// depth returns the level of the deepest output.
func depth(g *aig.AIG) int { return g.NumLevels() }

func TestRandomCircuitProfileHitsTargetGateCount(t *testing.T) {
	for _, p := range []DepthProfile{DepthMixed, DepthDeep, DepthWide} {
		g := RandomCircuitProfile(rand.New(rand.NewSource(7)), 16, 8, 2000, p)
		if g.NumAnds() < 2000 {
			t.Fatalf("%v: %d gates, want >= 2000 (strash folds must not shrink the target)", p, g.NumAnds())
		}
		// The budget only absorbs fold retries; the count must not balloon.
		if g.NumAnds() > 2100 {
			t.Fatalf("%v: %d gates, want about 2000", p, g.NumAnds())
		}
		if g.NumInputs() != 16 || g.NumOutputs() != 8 {
			t.Fatalf("%v: interface %d/%d, want 16/8", p, g.NumInputs(), g.NumOutputs())
		}
	}
}

func TestRandomCircuitProfileDeterministic(t *testing.T) {
	for _, p := range []DepthProfile{DepthMixed, DepthDeep, DepthWide} {
		a := RandomCircuitProfile(rand.New(rand.NewSource(11)), 12, 6, 500, p)
		b := RandomCircuitProfile(rand.New(rand.NewSource(11)), 12, 6, 500, p)
		if a.StructuralDigest() != b.StructuralDigest() {
			t.Fatalf("%v: same seed produced different circuits", p)
		}
		c := RandomCircuitProfile(rand.New(rand.NewSource(12)), 12, 6, 500, p)
		if a.StructuralDigest() == c.StructuralDigest() {
			t.Fatalf("%v: different seeds produced identical circuits", p)
		}
	}
}

// TestDepthProfilesAreDistinct pins what the profile names promise: at
// the same gate count, deep circuits are much deeper than mixed, and
// mixed deeper than wide.
func TestDepthProfilesAreDistinct(t *testing.T) {
	const gates = 3000
	d := depth(RandomCircuitProfile(rand.New(rand.NewSource(21)), 16, 4, gates, DepthDeep))
	m := depth(RandomCircuitProfile(rand.New(rand.NewSource(21)), 16, 4, gates, DepthMixed))
	w := depth(RandomCircuitProfile(rand.New(rand.NewSource(21)), 16, 4, gates, DepthWide))
	if !(d > 2*m && m > w) {
		t.Fatalf("depth ordering violated: deep=%d mixed=%d wide=%d", d, m, w)
	}
}

// TestSyntheticPresetsResolveLikeBuiltins exercises the smallest sized
// preset through the same Generate entry point the built-ins use. The
// larger presets share the construction path, differing only in
// registered size; rand100k drives the aig wide-simulation benchmark.
func TestSyntheticPresetsResolveLikeBuiltins(t *testing.T) {
	names := SyntheticNames()
	if len(names) != 3 || names[0] != "rand10k" || names[2] != "rand1m" {
		t.Fatalf("synthetic registry = %v", names)
	}
	g := MustGenerate("rand10k")
	want, _ := SyntheticGates("rand10k")
	if g.NumAnds() < want {
		t.Fatalf("rand10k has %d gates, want >= %d", g.NumAnds(), want)
	}
	// Cache-and-clone: a second Generate returns identical content in a
	// fresh graph the caller may extend freely.
	h := MustGenerate("rand10k")
	if h == g || h.StructuralDigest() != g.StructuralDigest() {
		t.Fatal("synthetic preset must clone a cached deterministic circuit")
	}
	for _, name := range Names() {
		if _, ok := SyntheticGates(name); ok {
			t.Fatalf("built-in name %q collides with a synthetic preset", name)
		}
	}
}
