package engine

import (
	"testing"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/synth"
)

// TestCacheHitZeroAllocs is the allocation-regression gate for the
// engine's hit path: once a recipe's score has settled, re-evaluating it
// (and probing Cached) must not allocate — the annealer revisits recipes
// constantly.
func TestCacheHitZeroAllocs(t *testing.T) {
	base := circuits.MustGenerate("c432")
	e := New(base, 1, sizeEval)
	defer e.Close()
	r := synth.Resyn2()
	want := e.Evaluate(r) // populate the cache
	if n := testing.AllocsPerRun(100, func() {
		if e.Evaluate(r) != want {
			t.Fatal("cached value changed")
		}
	}); n != 0 {
		t.Fatalf("cache-hit Evaluate allocates %.1f objects per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := e.Cached(r); !ok {
			t.Fatal("lost cache entry")
		}
	}); n != 0 {
		t.Fatalf("Cached allocates %.1f objects per run, want 0", n)
	}
}

// TestEmptyRecipeDoesNotCorruptWorkerClone pins the Recycle guard: an
// empty recipe makes Recipe.Run return the worker's base clone itself,
// and an EvalFunc that recycled it unconditionally would Reset the
// clone and poison every later evaluation on that worker.
func TestEmptyRecipeDoesNotCorruptWorkerClone(t *testing.T) {
	base := circuits.MustGenerate("c432")
	e := New(base, 1, sizeEval)
	defer e.Close()
	empty := synth.Recipe{}
	if got := e.Evaluate(empty); got != float64(base.NumAnds()) {
		t.Fatalf("empty recipe scored %v, want %v", got, float64(base.NumAnds()))
	}
	// A real recipe on the same worker must still see the intact clone.
	r := synth.Recipe{synth.StepBalance}
	if got, want := e.Evaluate(r), sizeOf(base, r); got != want {
		t.Fatalf("post-empty evaluation scored %v, want %v (worker clone corrupted?)", got, want)
	}
}

// TestScratchIsPerWorkerAndReused pins the scratch pooling contract:
// every EvalFunc invocation sees a non-nil scratch with a ready arena,
// the Aux slot persists across evaluations on the same
// worker, and the worker-private netlist is a faithful clone of base.
func TestScratchIsPerWorkerAndReused(t *testing.T) {
	base := circuits.MustGenerate("c432")
	type marker struct{ evals int }
	seen := make(chan *Scratch, 64)
	e := New(base, 1, func(g *aig.AIG, s *Scratch, r synth.Recipe) float64 {
		if s == nil || s.Arena == nil {
			t.Error("worker scratch not initialized")
		}
		if g.NumNodes() != base.NumNodes() {
			t.Error("worker netlist is not a clone of base")
		}
		m, ok := s.Aux.(*marker)
		if !ok {
			m = &marker{}
			s.Aux = m
		}
		m.evals++
		seen <- s
		return sizeEval(g, s, r)
	})
	defer e.Close()
	rs := recipes(6, 0)
	e.EvaluateBatch(rs)
	close(seen)
	var first *Scratch
	n := 0
	for s := range seen {
		if first == nil {
			first = s
		} else if s != first {
			t.Fatal("single worker used more than one scratch")
		}
		n++
	}
	if n != len(rs) {
		t.Fatalf("saw %d evaluations, want %d", n, len(rs))
	}
	if m := first.Aux.(*marker); m.evals != len(rs) {
		t.Fatalf("Aux state reset between evaluations: %d != %d", m.evals, len(rs))
	}
}
