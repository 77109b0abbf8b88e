package aig

import (
	"math/rand"
	"testing"
)

// buildChain returns a small deterministic AIG exercising complemented
// edges and shared logic.
func buildChain(nIn int) *AIG {
	g := New()
	lits := make([]Lit, 0, nIn)
	for i := 0; i < nIn; i++ {
		lits = append(lits, g.AddInput("x"))
	}
	cur := lits[0]
	for i, l := range lits[1:] {
		if i%2 == 0 {
			cur = g.And(cur, l.Not())
		} else {
			cur = g.Or(cur, l)
		}
	}
	g.AddOutput(cur, "o")
	g.AddOutput(cur.Not(), "on")
	return g
}

// TestSimulateIntoMatchesSimulate64 pins the Into variant to the
// allocating wrapper bit for bit.
func TestSimulateIntoMatchesSimulate64(t *testing.T) {
	g := buildChain(9)
	rng := rand.New(rand.NewSource(7))
	var s SimScratch
	var dst []uint64
	for round := 0; round < 16; round++ {
		in := RandomPatterns(rng, g.NumInputs())
		want := g.Simulate64(in)
		dst = g.SimulateInto(&s, dst, in)
		if len(dst) != len(want) {
			t.Fatalf("round %d: len %d != %d", round, len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("round %d output %d: %x != %x", round, i, dst[i], want[i])
			}
		}
	}
}

// TestSimulateWordsIntoMatchesSimulateWords pins the multi-word variant.
func TestSimulateWordsIntoMatchesSimulateWords(t *testing.T) {
	g := buildChain(7)
	rng := rand.New(rand.NewSource(9))
	const w = 3
	in := make([][]uint64, g.NumInputs())
	for i := range in {
		in[i] = make([]uint64, w)
		for k := range in[i] {
			in[i][k] = rng.Uint64()
		}
	}
	want := g.SimulateWords(in, w)
	var s SimScratch
	var dst [][]uint64
	for round := 0; round < 3; round++ {
		dst = g.SimulateWordsInto(&s, dst, in, w)
		for i := range want {
			for k := range want[i] {
				if dst[i][k] != want[i][k] {
					t.Fatalf("output %d word %d: %x != %x", i, k, dst[i][k], want[i][k])
				}
			}
		}
	}
}

// TestSignaturesIntoMatchesSignatures pins the signature variant,
// including identical rng consumption.
func TestSignaturesIntoMatchesSignatures(t *testing.T) {
	g := buildChain(8)
	want := g.Signatures(rand.New(rand.NewSource(11)), 4)
	var s SimScratch
	got := g.SignaturesInto(&s, rand.New(rand.NewSource(11)), 4)
	if len(got) != len(want) {
		t.Fatalf("row count %d != %d", len(got), len(want))
	}
	for id := range want {
		for k := range want[id] {
			if got[id][k] != want[id][k] {
				t.Fatalf("node %d word %d: %x != %x", id, k, got[id][k], want[id][k])
			}
		}
	}
}

// TestSimulateIntoZeroAllocs is the allocation-regression gate for the
// levelized simulation core: with a warm scratch and an adequate dst,
// SimulateInto must not allocate.
func TestSimulateIntoZeroAllocs(t *testing.T) {
	g := buildChain(12)
	in := RandomPatterns(rand.New(rand.NewSource(3)), g.NumInputs())
	var s SimScratch
	dst := g.SimulateInto(&s, nil, in) // warm up schedule and buffers
	if n := testing.AllocsPerRun(100, func() {
		dst = g.SimulateInto(&s, dst, in)
	}); n != 0 {
		t.Fatalf("SimulateInto allocates %.1f objects per run, want 0", n)
	}
}

// TestSignaturesIntoZeroAllocs: same gate for the signature core (the
// rng draw itself does not allocate).
func TestSignaturesIntoZeroAllocs(t *testing.T) {
	g := buildChain(10)
	rng := rand.New(rand.NewSource(5))
	var s SimScratch
	g.SignaturesInto(&s, rng, 4)
	if n := testing.AllocsPerRun(100, func() {
		g.SignaturesInto(&s, rng, 4)
	}); n != 0 {
		t.Fatalf("SignaturesInto allocates %.1f objects per run, want 0", n)
	}
}

// TestRebuilderResetIntoZeroAllocs: a warmed rebuilder copying into a
// recycled graph — the skeleton of every arena-backed synthesis pass —
// must reach a zero-allocation steady state.
func TestRebuilderResetIntoZeroAllocs(t *testing.T) {
	g := buildChain(12)
	var rb Rebuilder
	spare := New()
	// Warm up: one full identity rebuild grows every buffer and the
	// strash table.
	rb.ResetInto(g, spare)
	out := rb.Finish()
	if n := testing.AllocsPerRun(100, func() {
		rb.ResetInto(g, out)
		out = rb.Finish()
	}); n != 0 {
		t.Fatalf("Reset-based rebuild allocates %.1f objects per run, want 0", n)
	}
	if ok := EquivalentBySim(g, out, rand.New(rand.NewSource(1)), 4); !ok {
		t.Fatal("recycled rebuild changed the function")
	}
}

// TestAIGResetRecycles pins Reset's contract: the graph returns to the
// empty state, storage is retained, and the generation stamp moves so
// schedule caches cannot serve stale entries.
func TestAIGResetRecycles(t *testing.T) {
	g := buildChain(6)
	var s SimScratch
	in := RandomPatterns(rand.New(rand.NewSource(2)), g.NumInputs())
	g.SimulateInto(&s, nil, in)
	gen := g.Generation()
	g.Reset()
	if g.Generation() == gen {
		t.Fatal("Reset must bump the generation")
	}
	if g.NumNodes() != 1 || g.NumInputs() != 0 || g.NumOutputs() != 0 || g.NumAnds() != 0 {
		t.Fatalf("Reset left state behind: %v", g)
	}
	// Rebuild something different at the same pointer; the scratch must
	// re-schedule rather than reuse the stale gate list.
	a := g.AddInput("a")
	b := g.AddInput("b")
	g.AddOutput(g.And(a, b), "o")
	out := g.SimulateInto(&s, nil, []uint64{^uint64(0), 0})
	if out[0] != 0 {
		t.Fatalf("stale schedule after Reset: got %x, want 0", out[0])
	}
}

// TestScheduleRecycledGraphRegression is the satellite regression test:
// a recycled graph — Reset then rebuilt to the same node count — must
// not be served a stale schedule or stale cached values.
func TestScheduleRecycledGraphRegression(t *testing.T) {
	g := New()
	x := g.AddInput("x")
	y := g.AddInput("y")
	g.AddOutput(g.And(x, y), "o")
	var s SimScratch
	in := []uint64{0xF0F0F0F0F0F0F0F0, 0xFF00FF00FF00FF00}
	got := g.SimulateInto(&s, nil, in)
	if got[0] != in[0]&in[1] {
		t.Fatalf("AND sim wrong: %x", got[0])
	}

	// Recycle: same pointer, same node count, different function.
	g.Reset()
	x = g.AddInput("x")
	y = g.AddInput("y")
	g.AddOutput(g.Or(x, y).Not(), "o") // NOR = !(x|y); still one AND node
	if g.NumNodes() != 4 {
		t.Fatalf("rebuild changed node count: %d", g.NumNodes())
	}
	got = g.SimulateInto(&s, got, in)
	if want := ^(in[0] | in[1]); got[0] != want {
		t.Fatalf("stale schedule after Reset: got %x want %x", got[0], want)
	}
}

// buildRandom constructs a deterministic pseudo-random AIG: plenty of
// shared logic, complemented edges, and multiple outputs.
func buildRandom(rng *rand.Rand, nIn, nOut, nGates int) *AIG {
	g := New()
	lits := make([]Lit, 0, nIn+nGates)
	for i := 0; i < nIn; i++ {
		lits = append(lits, g.AddInput("x"))
	}
	for len(lits) < nIn+nGates {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		b := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		nl := g.And(a, b)
		if nl.Node() >= g.NumInputs()+1 {
			lits = append(lits, nl)
		}
	}
	for i := 0; i < nOut; i++ {
		g.AddOutput(lits[len(lits)-1-i].NotIf(i%2 == 1), "o")
	}
	return g
}

// TestSignaturesRowsCacheRegression pins the hazards of the reused row
// headers in SignaturesInto: the headers alias the scratch value buffer,
// so a width change must re-stride them, and reusing the scratch on a
// smaller graph must truncate them — in every case the returned rows
// must match a cold-scratch computation bit for bit.
func TestSignaturesRowsCacheRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := buildRandom(rng, 9, 4, 80)
	const seed = 0x5EED
	var s SimScratch

	check := func(stage string, g *AIG, w int) {
		t.Helper()
		got := g.SignaturesInto(&s, rand.New(rand.NewSource(seed)), w)
		want := g.Signatures(rand.New(rand.NewSource(seed)), w)
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", stage, len(got), len(want))
		}
		for id := range want {
			for k := 0; k < w; k++ {
				if got[id][k] != want[id][k] {
					t.Fatalf("%s: node %d word %d: %x != %x", stage, id, k, got[id][k], want[id][k])
				}
			}
		}
	}

	check("cold", g, 4)
	// Width change: same backing buffer can hold it, but every header has
	// the wrong stride now.
	check("width change", g, 2)
	// Scratch reuse on a smaller graph: cached rows must truncate.
	small := buildRandom(rand.New(rand.NewSource(62)), 5, 2, 20)
	check("smaller graph", small, 2)
	check("back to original", g, 4)
}

// TestRebuilderResetMatchesNewRebuilder pins Reset against the
// constructor: identical mapping state, identical rebuild result.
func TestRebuilderResetMatchesNewRebuilder(t *testing.T) {
	g := buildChain(8)
	want := NewRebuilder(g).Finish()
	var rb Rebuilder
	rb.Reset(g)
	got := rb.Finish()
	if got.NumNodes() != want.NumNodes() || got.NumAnds() != want.NumAnds() {
		t.Fatalf("Reset rebuild differs: %v vs %v", got, want)
	}
	if !EquivalentBySim(got, want, rand.New(rand.NewSource(4)), 4) {
		t.Fatal("Reset rebuild changed the function")
	}
}

// BenchmarkSimulateInto is BenchmarkSimulate64's graph driven through
// the warm-scratch path — the "aig sim" steady-state row of
// BENCH_pr5.json. Expected allocs/op: 0.
func BenchmarkSimulateInto(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := randomAIG(rng, 32, 16, 2000)
	in := RandomPatterns(rng, g.NumInputs())
	var s SimScratch
	dst := g.SimulateInto(&s, nil, in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = g.SimulateInto(&s, dst, in)
	}
}
