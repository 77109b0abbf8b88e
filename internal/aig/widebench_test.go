// Wide-simulation benchmarks live in an external test package: the
// synthetic circuit presets come from internal/circuits, which imports
// aig.
package aig_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/circuits"
)

// BenchmarkSimulateWordsRand100k measures bit-parallel simulation of the
// 100k-gate synthetic netlist at 1, 16, and 256 words per signal (64 to
// 16384 patterns) — the BENCH_pr10.json wide-simulation rows.
//
//	go test -run=^$ -bench=BenchmarkSimulateWordsRand100k -benchmem ./internal/aig
func BenchmarkSimulateWordsRand100k(b *testing.B) {
	g := circuits.MustGenerate("rand100k")
	rng := rand.New(rand.NewSource(17))
	for _, w := range []int{1, 16, 256} {
		in := make([][]uint64, g.NumInputs())
		for i := range in {
			in[i] = make([]uint64, w)
			for k := range in[i] {
				in[i][k] = rng.Uint64()
			}
		}
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			var s aig.SimScratch
			var dst [][]uint64
			dst = g.SimulateWordsInto(&s, dst, in, w) // warm schedule + buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = g.SimulateWordsInto(&s, dst, in, w)
			}
		})
	}
}
