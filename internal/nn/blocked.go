package nn

// Blocking parameters of the matmul kernel. colPanel bounds the slice of
// B columns streamed per pass so the panel stays cache-resident across a
// row panel of A; rowPanel bounds the A rows sharing that B panel.
const (
	rowPanel = 8
	colPanel = 256
)

// matMulPanel computes dst = A·B with row/column panel tiling. Each
// output element (i,j) accumulates over k ascending with the zero-skip,
// exactly as the naive triple loop: column tiling only changes which j
// values share one pass over k, never the per-element term order, so
// results are bit-for-bit identical to the unblocked kernel.
//
//almost:hotpath
func matMulPanel(dst, a, b *Matrix) {
	for i := 0; i < a.R; i++ {
		or := dst.Row(i)
		for j := range or {
			or[j] = 0
		}
	}
	for jp := 0; jp < b.C; jp += colPanel {
		jq := jp + colPanel
		if jq > b.C {
			jq = b.C
		}
		for ip := 0; ip < a.R; ip += rowPanel {
			iq := ip + rowPanel
			if iq > a.R {
				iq = a.R
			}
			for i := ip; i < iq; i++ {
				ar := a.Row(i)
				or := dst.Row(i)[jp:jq]
				for k, av := range ar {
					if av == 0 {
						continue
					}
					br := b.Row(k)[jp:jq]
					for j, bv := range br {
						or[j] += av * bv
					}
				}
			}
		}
	}
}

// MatMulATBInto computes Aᵀ·B into dst (which must be C(a)×C(b) and must
// not alias a or b), returning dst with the exact accumulation order of
// MatMulATB; dst is fully overwritten.
//
//almost:hotpath
func MatMulATBInto(dst, a, b *Matrix) *Matrix {
	if a.R != b.R {
		panic("nn: matmulATB shape mismatch")
	}
	if dst.R != a.C || dst.C != b.C {
		panic("nn: matmulATB dst shape mismatch")
	}
	dst.Zero()
	for i := 0; i < a.R; i++ {
		ar := a.Row(i)
		br := b.Row(i)
		for k, av := range ar {
			if av == 0 {
				continue
			}
			or := dst.Row(k)
			for j, bv := range br {
				or[j] += av * bv
			}
		}
	}
	return dst
}

// MatMulABTInto computes A·Bᵀ into dst (which must be R(a)×R(b) and must
// not alias a or b), returning dst with the exact accumulation order of
// MatMulABT; dst is fully overwritten.
//
//almost:hotpath
func MatMulABTInto(dst, a, b *Matrix) *Matrix {
	if a.C != b.C {
		panic("nn: matmulABT shape mismatch")
	}
	if dst.R != a.R || dst.C != b.R {
		panic("nn: matmulABT dst shape mismatch")
	}
	for i := 0; i < a.R; i++ {
		ar := a.Row(i)
		or := dst.Row(i)
		for j := 0; j < b.R; j++ {
			br := b.Row(j)
			var s float64
			for k := range ar {
				s += ar[k] * br[k]
			}
			or[j] = s
		}
	}
	return dst
}
