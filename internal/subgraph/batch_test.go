package subgraph

import (
	"math/rand"
	"testing"

	"github.com/nyu-secml/almost/internal/aig"
	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/gnn"
	"github.com/nyu-secml/almost/internal/lock"
)

// requireBatchMatchesReference checks that batch b is exactly the packed
// form of the reference graphs gs: offsets, features (==, bitwise), and
// adjacency lists in the reference append order.
func requireBatchMatchesReference(t *testing.T, b *gnn.Batch, gs []*gnn.Graph) {
	t.Helper()
	if b.Graphs() != len(gs) {
		t.Fatalf("batch has %d graphs, want %d", b.Graphs(), len(gs))
	}
	at := 0
	for gi, g := range gs {
		if b.Off[gi] != at {
			t.Fatalf("graph %d: Off = %d, want %d", gi, b.Off[gi], at)
		}
		for i := 0; i < g.X.R; i++ {
			br := b.X.Row(at + i)
			sr := g.X.Row(i)
			for j := range sr {
				if br[j] != sr[j] {
					t.Fatalf("graph %d node %d feature %d: batched %v != reference %v", gi, i, j, br[j], sr[j])
				}
			}
			badj := b.Adj[at+i]
			sadj := g.Adj[i]
			if len(badj) != len(sadj) {
				t.Fatalf("graph %d node %d: degree %d != reference %d", gi, i, len(badj), len(sadj))
			}
			for k := range sadj {
				if badj[k] != at+sadj[k] {
					t.Fatalf("graph %d node %d neighbor %d: batched %d != reference %d (+%d)", gi, i, k, badj[k], sadj[k], at)
				}
			}
		}
		at += g.X.R
	}
	if b.Off[len(gs)] != at {
		t.Fatalf("final offset %d, want %d", b.Off[len(gs)], at)
	}
}

// TestBatchedExtractionBitIdentity runs batched extraction against the
// map-based reference extractor on every built-in benchmark, locked and unlocked, with a
// single scratch and batch reused throughout — the reuse pattern of the
// engine hot loop.
func TestBatchedExtractionBitIdentity(t *testing.T) {
	ext := DefaultExtractor()
	var sc Scratch
	var b *gnn.Batch
	names := circuits.Names()
	if testing.Short() {
		names = names[:4]
	}
	for _, name := range names {
		// Unlocked: no key inputs, so the batch must come back empty.
		plain := circuits.MustGenerate(name)
		b = ext.AllInto(&sc, plain, b)
		if b.Graphs() != 0 {
			t.Fatalf("%s unlocked: batch has %d graphs, want 0", name, b.Graphs())
		}
		// Locked: every key gate's locality, in key-input order.
		locked, key := lock.Lock(plain, 24, rand.New(rand.NewSource(7)))
		b = ext.AllInto(&sc, locked, b)
		requireBatchMatchesReference(t, b, referenceLocalities(ext, locked, locked.KeyInputIndices(), nil))

		// A strict subset of key inputs, via the labeled forms.
		kis := locked.KeyInputIndices()[:len(key)/2]
		bits := make([]bool, len(kis))
		for i := range bits {
			bits[i] = key[i]
		}
		b = ext.LabeledInto(&sc, locked, kis, bits, b)
		ref := referenceLocalities(ext, locked, kis, bits)
		requireBatchMatchesReference(t, b, ref)
		for i, g := range ref {
			if b.Labels[i] != g.Label {
				t.Fatalf("%s: label %d = %d, want %d", name, i, b.Labels[i], g.Label)
			}
		}
	}
}

// TestBatchedExtractionAllocs gates the steady state of batched
// extraction: with a warm scratch and batch, re-extracting the same
// netlist performs zero allocations.
func TestBatchedExtractionAllocs(t *testing.T) {
	locked, _ := lockedBench(t, "c880", 32, 3)
	ext := DefaultExtractor()
	var sc Scratch
	b := ext.AllInto(&sc, locked, nil) // warm
	allocs := testing.AllocsPerRun(20, func() {
		b = ext.AllInto(&sc, locked, b)
	})
	if allocs != 0 {
		t.Fatalf("batched extraction steady state allocates %.1f per run, want 0", allocs)
	}
}

// TestBatchedExtractionAcrossGraphSwaps checks that one scratch serves
// alternating netlists of different sizes correctly — the engine reuses
// a worker's scratch across candidate netlists.
func TestBatchedExtractionAcrossGraphSwaps(t *testing.T) {
	ext := DefaultExtractor()
	var sc Scratch
	var b *gnn.Batch
	a1, _ := lockedBench(t, "c1908", 16, 1)
	a2, _ := lockedBench(t, "c432", 2, 2)
	for round := 0; round < 3; round++ {
		for _, g := range []*aig.AIG{a1, a2} {
			b = ext.AllInto(&sc, g, b)
			requireBatchMatchesReference(t, b, referenceLocalities(ext, g, g.KeyInputIndices(), nil))
		}
	}
}
