package engine

import (
	"testing"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/synth"
)

// synthEval is sizeEval written against the Scratch ownership API every
// production EvalFunc uses: Synth (prefix-chain aware) + Release.
func synthEval(g *aig.AIG, s *Scratch, r synth.Recipe) float64 {
	net := s.Synth(r)
	v := float64(net.NumAnds())
	s.Release(net)
	return v
}

// TestEvalKeyComposesBaseDigest pins the cache-key layout: the key is
// (base structural digest, recipe bytes), so equal recipes only share a
// key when the bases are structurally identical.
func TestEvalKeyComposesBaseDigest(t *testing.T) {
	a := circuits.MustGenerate("c432")
	b := circuits.MustGenerate("c499")
	r := synth.Resyn2()
	ka := string(appendEvalKey(nil, a.StructuralDigest(), r))
	kb := string(appendEvalKey(nil, b.StructuralDigest(), r))
	if ka == kb {
		t.Fatal("same recipe on different bases must not share a cache key")
	}
	twin := string(appendEvalKey(nil, a.Clone().StructuralDigest(), r))
	if ka != twin {
		t.Fatal("structurally identical bases must share a cache key")
	}
	if ka == string(appendEvalKey(nil, a.StructuralDigest(), r[:1])) {
		t.Fatal("recipe prefix must not collide under the same base")
	}
	if len(ka) != 8+len(r) {
		t.Fatalf("key length %d, want %d", len(ka), 8+len(r))
	}
}

// TestRebaseSwitchesBaseAndComposesCache is the engine-level memo
// contract for incremental base evolution: after Rebase the same recipe
// re-evaluates against the new base (no stale answer), and rebasing
// back to a structurally identical base turns the old scores into hits
// without re-evaluating.
func TestRebaseSwitchesBaseAndComposesCache(t *testing.T) {
	a := circuits.MustGenerate("c432")
	b := circuits.MustGenerate("c499")
	e := New(a, 2, synthEval)
	defer e.Close()
	r := synth.Resyn2()

	va := e.Evaluate(r)
	if want := sizeOf(a, r); va != want {
		t.Fatalf("base a scored %v, want %v", va, want)
	}

	e.Rebase(b)
	if _, ok := e.Cached(r); ok {
		t.Fatal("score minted against base a answered a lookup against base b")
	}
	vb := e.Evaluate(r)
	if want := sizeOf(b, r); vb != want {
		t.Fatalf("base b scored %v, want %v (stale worker clone?)", vb, want)
	}
	if st := e.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (one evaluation per base)", st.Misses)
	}

	// Rebase back to a structural twin of a: its settled score must be a
	// hit again, with no new evaluation.
	e.Rebase(a.Clone())
	got, ok := e.Cached(r)
	if !ok || got != va {
		t.Fatalf("Cached after rebase back = (%v, %v), want (%v, true)", got, ok, va)
	}
	if v := e.Evaluate(r); v != va {
		t.Fatalf("re-evaluation after rebase back = %v, want %v", v, va)
	}
	if st := e.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d after rebase round-trip, want 2", st.Misses)
	}
}

// TestRebaseBatchSeesNewBase runs a batch, rebases, and runs the same
// batch again: every score must track the base the batch was issued
// against, for every recipe.
func TestRebaseBatchSeesNewBase(t *testing.T) {
	a := circuits.MustGenerate("c432")
	b := circuits.MustGenerate("c880")
	e := New(a, 3, synthEval)
	defer e.Close()
	rs := recipes(6, 17)
	for i, v := range e.EvaluateBatch(rs) {
		if want := sizeOf(a, rs[i]); v != want {
			t.Fatalf("pre-rebase slot %d: %v, want %v", i, v, want)
		}
	}
	e.Rebase(b)
	for i, v := range e.EvaluateBatch(rs) {
		if want := sizeOf(b, rs[i]); v != want {
			t.Fatalf("post-rebase slot %d: %v, want %v", i, v, want)
		}
	}
}

// TestSynthPrefixReuseIdentity is the prefix-chain bit-identity
// invariant at the engine layer: scoring a neighborhood-style sequence of
// recipes (each a one-step edit of the last, as the annealer proposes
// them) through the prefix chain must produce exactly the scores of
// running each recipe on a fresh copy of the base.
func TestSynthPrefixReuseIdentity(t *testing.T) {
	base := circuits.MustGenerate("c499")
	// A neighborhood walk: consecutive recipes share long prefixes, plus
	// edge cases — empty recipe, full restart, shrink and regrow.
	walk := []synth.Recipe{
		{synth.StepBalance, synth.StepRewrite, synth.StepResub},
		{synth.StepBalance, synth.StepRewrite, synth.StepRefactor},
		{synth.StepBalance, synth.StepRewrite},
		{synth.StepBalance, synth.StepRewrite, synth.StepRewriteZ, synth.StepBalance},
		{},
		{synth.StepRewrite, synth.StepBalance},
		synth.Resyn2(),
		synth.Resyn2(), // repeat: full prefix hit inside the scratch
	}
	e := New(base, 1, synthEval)
	defer e.Close()
	for i, r := range walk {
		// Evaluate through the cache would dedup the repeated recipe;
		// bypass it so every walk step exercises Synth.
		e.mu.Lock()
		e.cache = make(map[string]*entry)
		e.mu.Unlock()
		if got, want := e.Evaluate(r), sizeOf(base, r); got != want {
			t.Fatalf("walk step %d (%v): %v, want reference %v", i, r, got, want)
		}
	}
}

// TestScratchChainReusesIntermediates pins that Synth actually resumes
// from the deepest shared prefix rather than silently re-running: the
// chained intermediates for the shared prefix must be the same *aig.AIG
// pointers across consecutive calls.
func TestScratchChainReusesIntermediates(t *testing.T) {
	base := circuits.MustGenerate("c432")
	s := NewScratch(base)
	r1 := synth.Recipe{synth.StepBalance, synth.StepRewrite, synth.StepResub}
	n1 := s.Synth(r1)
	if len(s.chainNets) != 3 || s.chainNets[2] != n1 {
		t.Fatalf("chain depth %d after first Synth, want 3 ending at result", len(s.chainNets))
	}
	shared := []*aig.AIG{s.chainNets[0], s.chainNets[1]}
	s.Release(n1)

	r2 := synth.Recipe{synth.StepBalance, synth.StepRewrite, synth.StepRefactorZ}
	n2 := s.Synth(r2)
	if s.chainNets[0] != shared[0] || s.chainNets[1] != shared[1] {
		t.Fatal("shared two-step prefix was re-synthesized instead of reused")
	}
	if n2 == n1 {
		t.Fatal("divergent step returned the recycled previous result")
	}
	if want := sizeOf(base, r2); float64(n2.NumAnds()) != want {
		t.Fatalf("chained result scored %v, want %v", float64(n2.NumAnds()), want)
	}
	s.Release(n2)

	// Releasing a chain-owned net must keep it live: a full-prefix repeat
	// returns it untouched.
	if n3 := s.Synth(r2); n3 != n2 {
		t.Fatal("full-prefix repeat did not return the retained chain head")
	}

	// An empty recipe is the base itself, and the base is never recycled.
	if s.Synth(nil) != s.g {
		t.Fatal("empty recipe must return the worker base")
	}
	s.Release(s.g) // must be a no-op
	if s.Synth(synth.Recipe{synth.StepBalance}) == nil {
		t.Fatal("scratch unusable after releasing base")
	}
}
