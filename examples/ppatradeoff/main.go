// PPA-tradeoff: sweeps every one of the seven synthesis transformations
// plus a set of random recipes over a locked benchmark and reports the
// resulting (area, delay, power, attack-accuracy) points — the design
// space ALMOST's annealer navigates. This reproduces, in miniature, the
// paper's observation that attack resilience and PPA are largely
// decoupled (Fig. 5).
//
//	go run ./examples/ppatradeoff
//	go run ./examples/ppatradeoff -quick (smaller circuit, fewer recipes; CI uses this)
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	almost "github.com/nyu-secml/almost"
)

func main() {
	quick := flag.Bool("quick", false, "smaller circuit and fewer recipes so the example finishes in seconds")
	flag.Parse()

	bench, keySize, nRandom := "c1908", 64, 6
	cfg := almost.DefaultConfig()
	if *quick {
		bench, keySize, nRandom = "c432", 16, 2
		cfg.Attack.Rounds = 1
		cfg.Attack.Epochs = 2
	}
	design, err := almost.GenerateBenchmark(bench)
	if err != nil {
		log.Fatal(err)
	}
	locked, key := almost.Lock(design, keySize, rand.New(rand.NewSource(3)))

	// One shared attacker model, trained on the resyn2 baseline, used as
	// a fast accuracy probe for every candidate netlist.
	proxy, err := almost.TrainProxyCtx(context.Background(), locked,
		almost.ModelResyn2, almost.Resyn2(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-50s %9s %8s %8s %8s\n", "recipe", "area", "delay", "power", "attack")
	report := func(name string, r almost.Recipe) {
		net := r.Apply(locked)
		ppa := almost.PPA(net, false)
		acc := proxy.Attack.AccuracyBatch(net, key)
		fmt.Printf("%-50s %8.1f² %7.3fn %7.2fµ %7.1f%%\n",
			name, ppa.Area, ppa.Delay, ppa.Power, acc*100)
	}

	report("(none)", almost.Recipe{})
	report("resyn2", almost.Resyn2())
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < nRandom; i++ {
		r := almost.RandomRecipe(rng, 10)
		report(fmt.Sprintf("random #%d: %.40s...", i, r.String()), r)
	}
	fmt.Println("\nNote the spread in the attack column at similar PPA —")
	fmt.Println("that decoupling is the degree of freedom ALMOST exploits.")
}
