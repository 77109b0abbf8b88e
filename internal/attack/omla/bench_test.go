package omla

import (
	"math/rand"
	"testing"

	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/lock"
)

// BenchmarkAttackPass measures one full attack scoring pass — extract
// every key-gate locality into one packed batch and run one blocked GIN
// forward over it — the per-candidate cost inside the Eq. 1 search loop;
// the BENCH_pr10.json "per-step attack scoring" row.
//
//	go test -run=^$ -bench=BenchmarkAttackPass -benchmem ./internal/attack/omla
func BenchmarkAttackPass(b *testing.B) {
	locked, key := lock.Lock(circuits.MustGenerate("c880"), 64, rand.New(rand.NewSource(5)))
	atk := tinyAttack(b, locked)
	var bs BatchScratch
	atk.AccuracyBatchWith(&bs, locked, key) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atk.AccuracyBatchWith(&bs, locked, key)
	}
}
