package aig

import "testing"

// TestStructuralDigestSensitivity spot-checks that the digest reacts to
// every structural dimension it claims to cover.
func TestStructuralDigestSensitivity(t *testing.T) {
	mk := func(mut func(g *AIG)) uint64 {
		g := New()
		x := g.AddInput("x")
		y := g.AddInput("y")
		g.AddOutput(g.And(x, y), "o")
		if mut != nil {
			mut(g)
		}
		return g.StructuralDigest()
	}
	base := mk(nil)
	if mk(nil) != base {
		t.Fatalf("digest not deterministic")
	}
	if mk(func(g *AIG) { g.SetOutput(0, g.Output(0).Not()) }) == base {
		t.Fatalf("digest misses output polarity")
	}
	if mk(func(g *AIG) { g.AddKeyInput("k") }) == base {
		t.Fatalf("digest misses appended input")
	}
	g2 := New()
	x := g2.AddKeyInput("x") // same shape, input 0 is now a key input
	y := g2.AddInput("y")
	g2.AddOutput(g2.And(x, y), "o")
	if g2.StructuralDigest() == base {
		t.Fatalf("digest misses key flag")
	}
}
