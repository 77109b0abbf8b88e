package nn

import (
	"math/rand"
	"testing"
)

// matMulNaive is the reference triple loop the blocked kernels must match
// bit for bit: per output element, k ascending with the zero-skip.
func matMulNaive(a, b *Matrix) *Matrix {
	out := NewMatrix(a.R, b.C)
	for i := 0; i < a.R; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			br := b.Row(k)
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
	return out
}

// randMatrix fills an r×c matrix with normal values and a sprinkling of
// exact zeros so the zero-skip path is exercised.
func randMatrix(r, c int, rng *rand.Rand) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.D {
		if rng.Intn(5) == 0 {
			continue
		}
		m.D[i] = rng.NormFloat64()
	}
	return m
}

// TestMatMulBlockedBitIdentity checks the panel-tiled kernel against the
// naive loop across shapes that straddle every panel boundary. Identity
// must be exact (==), not approximate: the determinism invariant rides on
// it.
func TestMatMulBlockedBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 2}, {rowPanel, 9, colPanel}, {rowPanel + 1, 4, colPanel + 1},
		{2*rowPanel + 3, 17, 2*colPanel + 5}, {31, 64, 129}, {64, 11, 3},
	}
	for _, sh := range shapes {
		a := randMatrix(sh[0], sh[1], rng)
		b := randMatrix(sh[1], sh[2], rng)
		want := matMulNaive(a, b)
		got := MatMul(a, b)
		for i := range want.D {
			if got.D[i] != want.D[i] {
				t.Fatalf("shape %v: blocked[%d] = %v, want %v", sh, i, got.D[i], want.D[i])
			}
		}
	}
}

// TestMatMulIntoVariantsBitIdentity checks the new Into variants against
// their allocating originals (which now delegate — so compare against an
// explicit-transpose MatMul as the independent reference).
func TestMatMulIntoVariantsBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randMatrix(9, 6, rng)
	b := randMatrix(9, 7, rng)
	at := NewMatrix(6, 9)
	for i := 0; i < a.R; i++ {
		for j := 0; j < a.C; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	// Aᵀ·B: the Into variant keeps MatMulATB's historical accumulation
	// order (outer i over rows of A), which differs from MatMul(at, b)
	// only in float association — compare approximately against the
	// transpose and exactly against the delegating wrapper.
	wantATB := MatMulATB(a, b)
	gotATB := MatMulATBInto(NewMatrix(6, 7), a, b)
	for i := range wantATB.D {
		if gotATB.D[i] != wantATB.D[i] {
			t.Fatalf("ATBInto[%d] = %v, want %v", i, gotATB.D[i], wantATB.D[i])
		}
	}
	ref := MatMul(at, b)
	for i := range ref.D {
		if !almostEq(gotATB.D[i], ref.D[i], 1e-9) {
			t.Fatalf("ATBInto[%d] = %v, transpose ref %v", i, gotATB.D[i], ref.D[i])
		}
	}
	// A·Bᵀ.
	c := randMatrix(5, 6, rng)
	wantABT := MatMulABT(a, c)
	gotABT := MatMulABTInto(NewMatrix(9, 5), a, c)
	for i := range wantABT.D {
		if gotABT.D[i] != wantABT.D[i] {
			t.Fatalf("ABTInto[%d] = %v, want %v", i, gotABT.D[i], wantABT.D[i])
		}
	}
	// Into variants fully overwrite stale dst contents.
	dirty := NewMatrix(6, 7)
	for i := range dirty.D {
		dirty.D[i] = 1e9
	}
	MatMulATBInto(dirty, a, b)
	for i := range dirty.D {
		if dirty.D[i] != wantATB.D[i] {
			t.Fatalf("ATBInto left stale dst at %d", i)
		}
	}
}
