package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/synth"
)

// BenchmarkSearchRecipe measures the Eq. 1 recipe search — the hottest
// path of the framework — at several engine worker counts on an ISCAS-85
// benchmark. The search trajectory is identical across worker counts
// (asserted by TestSearchRecipeJobsInvariant), so the sub-benchmarks
// differ only in wall-clock: on an N-core machine jobs=4 should beat
// jobs=1 by well over 2x, since each SA iteration evaluates
// SAProposals=4 candidate recipes that are independent of one another.
//
//	go test -run=^$ -bench=BenchmarkSearchRecipe ./internal/core
func BenchmarkSearchRecipe(b *testing.B) {
	g := circuits.MustGenerate("c880")
	locked, key := lock.Lock(g, 32, rand.New(rand.NewSource(1)))
	cfg := DefaultConfig()
	cfg.Attack.Rounds = 2
	cfg.Attack.Epochs = 4
	cfg.SA.Iterations = 12
	cfg.SAProposals = 4
	proxy, err := TrainProxyCtx(context.Background(), locked, ModelResyn2, synth.Resyn2(), cfg)
	if err != nil {
		b.Fatal(err)
	}

	var ref synth.Recipe
	for _, jobs := range []int{1, 2, 4} {
		cfg.Parallelism = jobs
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := SearchRecipeCtx(context.Background(), locked, key, proxy, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if ref == nil {
					ref = res.Recipe
				} else if !res.Recipe.Equal(ref) {
					b.Fatalf("jobs=%d diverged from jobs=1 result", jobs)
				}
			}
		})
	}
}

// BenchmarkSearchObjective compares the cost of the paper's single-proxy
// Eq. 1 objective against ensemble objectives that additionally run the
// registered SCOPE (and redundancy) attacks on every candidate netlist —
// the BENCH_pr4.json data point. The ensemble multiplies per-candidate
// work (SCOPE synthesizes two cofactors per key bit), which is exactly
// the cost the memoizing concurrent engine amortizes across workers.
//
//	go test -run=^$ -bench=BenchmarkSearchObjective ./internal/core
func BenchmarkSearchObjective(b *testing.B) {
	g := circuits.MustGenerate("c432")
	keyBits := 16
	cfg := DefaultConfig()
	cfg.Attack.Rounds = 2
	cfg.Attack.Epochs = 4
	cfg.SA.Iterations = 8
	cfg.SAProposals = 2
	if testing.Short() {
		keyBits = 8
		cfg.SA.Iterations = 5
	}
	locked, key := lock.Lock(g, keyBits, rand.New(rand.NewSource(1)))
	proxy, err := TrainProxyCtx(context.Background(), locked, ModelResyn2, synth.Resyn2(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		attacks []string
	}{
		{"attacks=omla", nil},
		{"attacks=omla,scope", []string{"omla", "scope"}},
		{"attacks=omla,scope,redundancy", []string{"omla", "scope", "redundancy"}},
	} {
		cfg.EvalAttacks = tc.attacks
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := SearchRecipeCtx(context.Background(), locked, key, proxy, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Accuracy*100, "headline-acc-pct")
			}
		})
	}
}
