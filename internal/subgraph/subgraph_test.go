package subgraph

import (
	"math/rand"
	"testing"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/gnn"
	"github.com/nyu-secml/almost/internal/lock"
)

func lockedBench(t *testing.T, name string, keySize int, seed int64) (*aig.AIG, lock.Key) {
	t.Helper()
	g := circuits.MustGenerate(name)
	return lock.Lock(g, keySize, rand.New(rand.NewSource(seed)))
}

// all extracts every key-input locality of g through the packed path and
// unpacks it into standalone graphs, as training consumes them.
func all(e Extractor, g *aig.AIG) []*gnn.Graph {
	return e.AllInto(&Scratch{}, g, nil).Unpack()
}

func TestAllExtractsOnePerKeyInput(t *testing.T) {
	locked, _ := lockedBench(t, "c432", 12, 1)
	gs := all(DefaultExtractor(), locked)
	if len(gs) != 12 {
		t.Fatalf("got %d localities, want 12", len(gs))
	}
	for i, g := range gs {
		if g.X.R == 0 {
			t.Fatalf("locality %d empty", i)
		}
		if g.X.C != FeatureDim {
			t.Fatalf("feature dim = %d", g.X.C)
		}
		if len(g.Adj) != g.X.R {
			t.Fatalf("adjacency size mismatch")
		}
	}
}

func TestSeedFeature(t *testing.T) {
	locked, _ := lockedBench(t, "c432", 4, 2)
	gs := all(DefaultExtractor(), locked)
	for gi, g := range gs {
		seeds, keyNodes := 0, 0
		for i := 0; i < g.X.R; i++ {
			if g.X.At(i, fIsSeed) == 1 {
				seeds++
				if g.X.At(i, fKeyInput) != 1 {
					t.Fatalf("locality %d: seed is not a key input", gi)
				}
			}
			if g.X.At(i, fKeyInput) == 1 {
				keyNodes++
			}
		}
		if seeds != 1 {
			t.Fatalf("locality %d: %d seed nodes", gi, seeds)
		}
		if keyNodes < 1 {
			t.Fatalf("locality %d: no key-input node", gi)
		}
	}
}

func TestAdjacencySymmetric(t *testing.T) {
	locked, _ := lockedBench(t, "c880", 8, 3)
	gs := all(Extractor{Hops: 3}, locked)
	for gi, g := range gs {
		for i, nbrs := range g.Adj {
			for _, j := range nbrs {
				found := false
				for _, back := range g.Adj[j] {
					if back == i {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("locality %d: edge %d->%d not symmetric", gi, i, j)
				}
			}
		}
	}
}

func TestHopsControlSize(t *testing.T) {
	locked, _ := lockedBench(t, "c880", 8, 4)
	small := all(Extractor{Hops: 1}, locked)
	big := all(Extractor{Hops: 3}, locked)
	for i := range small {
		if small[i].X.R > big[i].X.R {
			t.Fatalf("locality %d: 1-hop larger than 3-hop", i)
		}
	}
}

func TestLabeled(t *testing.T) {
	locked, key := lockedBench(t, "c432", 6, 5)
	kis := locked.KeyInputIndices()
	gs := DefaultExtractor().LabeledInto(&Scratch{}, locked, kis, key, nil).Unpack()
	for i, g := range gs {
		want := 0
		if key[i] {
			want = 1
		}
		if g.Label != want {
			t.Fatalf("label %d = %d, want %d", i, g.Label, want)
		}
	}
}

func TestFeaturesDoNotLeakKeyBit(t *testing.T) {
	// Two lockings identical except for the key bits (same seed for target
	// selection): in the AIG representation, XOR vs XNOR differs only by an
	// output-edge complement, which shows up in *fanin polarity* features
	// of downstream nodes — structure the attack is allowed to see. What
	// must NOT happen is a feature column directly encoding the label:
	// check that no single feature equals the key bit across localities.
	g := circuits.MustGenerate("c499")
	locked, key := lock.Lock(g, 32, rand.New(rand.NewSource(6)))
	gs := all(DefaultExtractor(), locked)
	for f := 0; f < FeatureDim; f++ {
		matches := 0
		for i := range gs {
			// Use the seed node's feature value as the candidate leak.
			var v float64
			for r := 0; r < gs[i].X.R; r++ {
				if gs[i].X.At(r, fIsSeed) == 1 {
					v = gs[i].X.At(r, f)
				}
			}
			bit := 0.0
			if key[i] {
				bit = 1.0
			}
			if v == bit {
				matches++
			}
		}
		if matches == len(gs) && f != fKeyInput && f != fIsSeed {
			t.Fatalf("feature %d perfectly matches key bits — label leak", f)
		}
	}
}

func TestDeterministicExtraction(t *testing.T) {
	locked, _ := lockedBench(t, "c432", 6, 7)
	g1 := all(DefaultExtractor(), locked)
	g2 := all(DefaultExtractor(), locked)
	for i := range g1 {
		if g1[i].X.R != g2[i].X.R {
			t.Fatalf("nondeterministic extraction")
		}
		for j := range g1[i].X.D {
			if g1[i].X.D[j] != g2[i].X.D[j] {
				t.Fatalf("nondeterministic features")
			}
		}
	}
}

func BenchmarkExtractC7552(b *testing.B) {
	g := circuits.MustGenerate("c7552")
	locked, _ := lock.Lock(g, 128, rand.New(rand.NewSource(8)))
	ext := DefaultExtractor()
	var sc Scratch
	batch := ext.AllInto(&sc, locked, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch = ext.AllInto(&sc, locked, batch)
	}
}
