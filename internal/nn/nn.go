// Package nn provides the dense linear algebra, layers, losses, and the
// Adam optimizer underlying the graph neural network attack models. It
// is a deliberately small, dependency-free float64 stack: the paper's
// models are tiny (a few thousand parameters), so clarity and exact
// reproducibility beat throughput.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	R, C int
	D    []float64
}

// NewMatrix allocates an R×C zero matrix.
func NewMatrix(r, c int) *Matrix {
	return &Matrix{R: r, C: c, D: make([]float64, r*c)}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.D[i*m.C+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.D[i*m.C+j] = v }

// Row returns a slice aliasing row i.
func (m *Matrix) Row(i int) []float64 { return m.D[i*m.C : (i+1)*m.C] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.R, m.C)
	copy(out.D, m.D)
	return out
}

// Zero resets all elements.
func (m *Matrix) Zero() {
	for i := range m.D {
		m.D[i] = 0
	}
}

// MatMul returns A·B.
func MatMul(a, b *Matrix) *Matrix {
	return MatMulInto(NewMatrix(a.R, b.C), a, b)
}

// MatMulInto computes A·B into dst (which must be R(a)×C(b) and must not
// alias a or b), returning dst. The row/column-panel blocked kernel
// behind it preserves the exact accumulation order of the naive triple
// loop — including the zero-skip — so results are bit-for-bit identical
// to it; dst is fully overwritten.
//
//almost:hotpath
func MatMulInto(dst, a, b *Matrix) *Matrix {
	if a.C != b.R {
		panic(fmt.Sprintf("nn: matmul shape mismatch %dx%d · %dx%d", a.R, a.C, b.R, b.C))
	}
	if dst.R != a.R || dst.C != b.C {
		panic(fmt.Sprintf("nn: matmul dst shape %dx%d, want %dx%d", dst.R, dst.C, a.R, b.C))
	}
	matMulPanel(dst, a, b)
	return dst
}

// MatMulATB returns Aᵀ·B.
func MatMulATB(a, b *Matrix) *Matrix {
	return MatMulATBInto(NewMatrix(a.C, b.C), a, b)
}

// MatMulABT returns A·Bᵀ.
func MatMulABT(a, b *Matrix) *Matrix {
	return MatMulABTInto(NewMatrix(a.R, b.R), a, b)
}

// Param is a trainable tensor with its gradient accumulator.
type Param struct {
	W, G *Matrix
}

// NewParam allocates a parameter and its gradient.
func NewParam(r, c int) *Param {
	return &Param{W: NewMatrix(r, c), G: NewMatrix(r, c)}
}

// HeInit fills the parameter with He-normal values (the initialization
// Algorithm 1 specifies).
func (p *Param) HeInit(rng *rand.Rand) {
	std := math.Sqrt(2.0 / float64(p.W.R))
	for i := range p.W.D {
		p.W.D[i] = rng.NormFloat64() * std
	}
}

// Linear is a fully connected layer Y = X·W + b.
type Linear struct {
	W *Param // in×out
	B *Param // 1×out
}

// NewLinear builds a He-initialized linear layer.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{W: NewParam(in, out), B: NewParam(1, out)}
	l.W.HeInit(rng)
	return l
}

// Forward computes X·W + b.
func (l *Linear) Forward(x *Matrix) *Matrix {
	return l.ForwardInto(NewMatrix(x.R, l.W.W.C), x)
}

// ForwardInto computes X·W + b into dst (which must be R(x)×out and must
// not alias x), returning dst. Bit-for-bit identical to Forward.
//
//almost:hotpath
func (l *Linear) ForwardInto(dst, x *Matrix) *Matrix {
	y := MatMulInto(dst, x, l.W.W)
	for i := 0; i < y.R; i++ {
		yr := y.Row(i)
		for j := range yr {
			yr[j] += l.B.W.D[j]
		}
	}
	return y
}

// OutDim returns the layer's output width.
func (l *Linear) OutDim() int { return l.W.W.C }

// Backward accumulates parameter gradients for input x and upstream
// gradient dy, returning the gradient w.r.t. x.
func (l *Linear) Backward(x, dy *Matrix) *Matrix {
	dw := MatMulATB(x, dy)
	for i := range dw.D {
		l.W.G.D[i] += dw.D[i]
	}
	for i := 0; i < dy.R; i++ {
		dr := dy.Row(i)
		for j := range dr {
			l.B.G.D[j] += dr[j]
		}
	}
	return MatMulABT(dy, l.W.W)
}

// Params returns the layer's trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ReLU applies max(0,x) elementwise, returning the output (used as the
// mask in ReLUBackward).
func ReLU(x *Matrix) *Matrix {
	y := x.Clone()
	for i, v := range y.D {
		if v < 0 {
			y.D[i] = 0
		}
	}
	return y
}

// ReLUInPlace clamps x to max(0,x) elementwise without allocating. Only
// for inference paths: the training path needs the pre-activation kept
// separate from the mask, so it stays on ReLU.
//
//almost:hotpath
func ReLUInPlace(x *Matrix) *Matrix {
	for i, v := range x.D {
		if v < 0 {
			x.D[i] = 0
		}
	}
	return x
}

// ReLUBackward masks dy by the activation pattern of y (the ReLU output).
func ReLUBackward(y, dy *Matrix) *Matrix {
	dx := dy.Clone()
	for i := range dx.D {
		if y.D[i] <= 0 {
			dx.D[i] = 0
		}
	}
	return dx
}

// SoftmaxCE computes softmax cross-entropy for a batch of logits
// (rows = samples) against integer labels. It returns the mean loss, the
// probability matrix, and the logits gradient (already divided by batch).
func SoftmaxCE(logits *Matrix, labels []int) (float64, *Matrix, *Matrix) {
	if logits.R != len(labels) {
		panic("nn: label count mismatch")
	}
	probs := NewMatrix(logits.R, logits.C)
	grad := NewMatrix(logits.R, logits.C)
	var loss float64
	for i := 0; i < logits.R; i++ {
		lr := logits.Row(i)
		maxv := lr[0]
		for _, v := range lr[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		pr := probs.Row(i)
		for j, v := range lr {
			e := math.Exp(v - maxv)
			pr[j] = e
			sum += e
		}
		for j := range pr {
			pr[j] /= sum
		}
		y := labels[i]
		loss += -math.Log(math.Max(pr[y], 1e-12))
		gr := grad.Row(i)
		copy(gr, pr)
		gr[y] -= 1
		for j := range gr {
			gr[j] /= float64(logits.R)
		}
	}
	return loss / float64(logits.R), probs, grad
}

// Adam is the Adam optimizer over a fixed parameter set.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  []*Matrix
	params                []*Param
}

// NewAdam builds an optimizer with standard defaults for the parameters.
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	for _, p := range params {
		a.m = append(a.m, NewMatrix(p.W.R, p.W.C))
		a.v = append(a.v, NewMatrix(p.W.R, p.W.C))
	}
	return a
}

// Step applies one update from the accumulated gradients, then clears
// them.
func (a *Adam) Step() {
	a.t++
	b1c := 1 - math.Pow(a.Beta1, float64(a.t))
	b2c := 1 - math.Pow(a.Beta2, float64(a.t))
	for pi, p := range a.params {
		m, v := a.m[pi], a.v[pi]
		for i, g := range p.G.D {
			m.D[i] = a.Beta1*m.D[i] + (1-a.Beta1)*g
			v.D[i] = a.Beta2*v.D[i] + (1-a.Beta2)*g*g
			mh := m.D[i] / b1c
			vh := v.D[i] / b2c
			p.W.D[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		p.G.Zero()
	}
}

// ZeroGrads clears all gradients without updating.
func (a *Adam) ZeroGrads() {
	for _, p := range a.params {
		p.G.Zero()
	}
}

// Argmax returns the index of the row's maximum (first maximum wins).
func Argmax(row []float64) int {
	best := 0
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = j
		}
	}
	return best
}
