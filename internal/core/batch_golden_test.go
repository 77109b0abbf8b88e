package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/subgraph"
)

// The golden pins below fix the observable output of the proxy-scored
// searches: recipes, accuracies and full trajectories. They were captured
// while a second, scalar inference path still existed and every search
// was proven bit-identical across both; the pins keep that evidence now
// that only the fused batch path remains. The pipeline pin was captured
// likewise while candidate evaluation could still bypass the engine's
// recipe-prefix chain. A legitimate change to the search or the model
// must update them deliberately.
//
// go test runs a package's files in name order, so this file's name
// sorts ahead of core_test.go: the pins run before the package's long
// end-to-end searches and are never cut off by a package time limit.

// searchPin is the golden outcome of one ensemble search.
type searchPin struct {
	recipe string
	accs   string // per-attack accuracies, "name=value" in name order
	trace  string // traceDigest of the per-iteration trace
}

// formatAccs renders per-attack accuracies exactly, in name order.
func formatAccs(accs map[string]float64) string {
	names := make([]string, 0, len(accs))
	for name := range accs {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%v", name, accs[name])
	}
	return strings.Join(parts, ",")
}

// traceDigest hashes a search trajectory: every iteration's index,
// recipe, and the exact bits of its headline and per-attack accuracies.
func traceDigest(trace []SearchTracePoint) string {
	h := sha256.New()
	for _, tp := range trace {
		fmt.Fprintf(h, "%d %s %016x", tp.Iteration, tp.Recipe, math.Float64bits(tp.Accuracy))
		names := make([]string, 0, len(tp.Accuracies))
		for name := range tp.Accuracies {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(h, " %s=%016x", name, math.Float64bits(tp.Accuracies[name]))
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// goldenEnsembleSearch pins the omla,scope,redundancy ensemble search on
// RLL-8 c432 (seed 53, RecipeLen 5) per engine Parallelism, for the full
// and the -short tinyConfig.
var goldenEnsembleSearch = map[bool]map[int]searchPin{
	false: {
		1: {recipe: "resub; balance; resub -z; rewrite; balance", accs: "omla=0.5,redundancy=0.5,scope=0.5", trace: "09668e89968e043f"},
		4: {recipe: "resub; balance; resub -z; rewrite; balance", accs: "omla=0.5,redundancy=0.5,scope=0.5", trace: "09668e89968e043f"},
	},
	true: {
		4: {recipe: "resub; balance; resub -z; rewrite; balance", accs: "omla=0.5,redundancy=0.5,scope=0.5", trace: "7aa3948d37d93f03"},
	},
}

// TestGoldenEnsembleSearch runs the ensemble search at Parallelism 1 and
// 4 (4 only under -short) and requires the pinned recipe, per-attack
// accuracies and trajectory.
func TestGoldenEnsembleSearch(t *testing.T) {
	g := circuits.MustGenerate("c432")
	locked, key := lock.Lock(g, 8, rand.New(rand.NewSource(53)))
	cfg := tinyConfig()
	cfg.EvalAttacks = []string{"omla", "scope", "redundancy"}
	// Shorter recipes halve every candidate synthesis (SCOPE alone runs
	// two cofactor syntheses per key bit per candidate).
	cfg.RecipeLen = 5
	proxy := trainProxyT(t, locked, ModelResyn2, cfg)

	pins := goldenEnsembleSearch[testing.Short()]
	for _, jobs := range []int{1, 4} {
		want, ok := pins[jobs]
		if !ok {
			continue
		}
		cfg.Parallelism = jobs
		res := searchT(t, locked, key, proxy, cfg)
		got := searchPin{recipe: res.Recipe.String(), accs: formatAccs(res.Accuracies), trace: traceDigest(res.Trace)}
		if got != want {
			t.Errorf("jobs=%d: ensemble search drifted from its golden pin:\n got  %+v\n want %+v", jobs, got, want)
		}
	}
}

// goldenAdversarialProxy pins the adversarially trained proxy (Algorithm
// 1, whose Eq. 3 searches score candidates by batched loss) on RLL-8
// c432 (seed 59): its predicted key, its accuracy, and a digest of the
// exact per-key-gate probabilities, for the full and the -short
// tinyConfig.
var goldenAdversarialProxy = map[bool]struct {
	key   string
	acc   float64
	probs string
}{
	false: {key: "00000000", acc: 0.75, probs: "2f49b54e1e42b91a"},
	true:  {key: "00101001", acc: 0.625, probs: "01d1bfca5576a3ff"},
}

// TestGoldenAdversarialProxy trains M* and requires the pinned key
// prediction, accuracy and probabilities.
func TestGoldenAdversarialProxy(t *testing.T) {
	g := circuits.MustGenerate("c432")
	locked, key := lock.Lock(g, 8, rand.New(rand.NewSource(59)))
	proxy := trainProxyT(t, locked, ModelAdversarial, tinyConfig())

	want := goldenAdversarialProxy[testing.Short()]
	if got := proxy.Attack.PredictKeyBatchWith(nil, locked).String(); got != want.key {
		t.Errorf("adversarial proxy key drifted: got %s, want %s", got, want.key)
	}
	if got := proxy.Attack.AccuracyBatch(locked, key); got != want.acc {
		t.Errorf("adversarial proxy accuracy drifted: got %v, want %v", got, want.acc)
	}
	b := proxy.Attack.Ext.AllInto(&subgraph.Scratch{}, locked, nil)
	h := sha256.New()
	for _, p := range proxy.Attack.Model.PredictProbBatchWith(nil, b, nil) {
		fmt.Fprintf(h, "%016x\n", math.Float64bits(p))
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != want.probs {
		t.Errorf("adversarial proxy probabilities drifted: got %s, want %s", got, want.probs)
	}
}

// goldenPipeline pins the complete hardening pipeline (adversarial
// proxy training with its Eq. 3 searches, the Eq. 1 search and the final
// synthesis) on unlocked c432 with 8 key gates: the chosen recipe, the
// search accuracy, and the structural digest of the hardened netlist,
// for the full and the -short tinyConfig.
var goldenPipeline = map[bool]struct {
	recipe string
	acc    float64
	digest uint64
}{
	false: {recipe: "resub; balance; resub -z; rewrite; balance; refactor; resub -z; resub -z; balance; refactor -z", acc: 0.375, digest: 0x2a50a7c7c408cbcc},
	true:  {recipe: "resub; balance; resub -z; rewrite; balance", acc: 0.5, digest: 0xbdf287200b833de9},
}

// checkGoldenPipeline requires the pinned recipe, accuracy and hardened
// netlist structure of hardenT(c432, 8, tinyConfig()). That run is
// exactly TestSecureSynthesisEndToEnd's, which calls this check, so the
// pin costs no extra pipeline and is checked early in the package run.
func checkGoldenPipeline(t *testing.T, h *Hardened) {
	t.Helper()
	want := goldenPipeline[testing.Short()]
	if got := h.Recipe.String(); got != want.recipe {
		t.Errorf("pipeline recipe drifted from its golden pin:\n got  %s\n want %s", got, want.recipe)
	}
	if h.Search.Accuracy != want.acc {
		t.Errorf("pipeline accuracy drifted from its golden pin: got %v, want %v", h.Search.Accuracy, want.acc)
	}
	if got := h.Netlist.StructuralDigest(); got != want.digest {
		t.Errorf("hardened netlist drifted from its golden pin: digest %#x, want %#x", got, want.digest)
	}
}
