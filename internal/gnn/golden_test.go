package gnn_test

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"github.com/nyu-secml/almost/internal/attack/omla"
	"github.com/nyu-secml/almost/internal/circuits"
	"github.com/nyu-secml/almost/internal/gnn"
	"github.com/nyu-secml/almost/internal/lock"
	"github.com/nyu-secml/almost/internal/subgraph"
	"github.com/nyu-secml/almost/internal/synth"
)

// dataDigest hashes a training set exactly: per graph its label, every
// feature bit, and every neighbor list in order (the aggregation sums
// neighbors in list order, so the order is part of the data).
func dataDigest(gs []*gnn.Graph) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, g := range gs {
		word(uint64(g.Label))
		word(uint64(g.X.R))
		word(uint64(g.X.C))
		for _, v := range g.X.D {
			word(math.Float64bits(v))
		}
		for _, row := range g.Adj {
			word(uint64(len(row)))
			for _, j := range row {
				word(uint64(j))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Golden digests of the M^resyn2 pipeline on RLL-16 c432, captured while
// training data still came from the map-based per-key-gate extractor.
// They prove the packed extraction unpacked into training graphs is
// byte-for-byte that data, and that training over it lands on the same
// weights.
const (
	goldenResyn2Samples = 320
	goldenResyn2Data    = "0f505b98cd79a773"
	goldenResyn2Weights = "a5db2ac2188ab6b6"
)

// TestGoldenResyn2Weights runs GenerateDataCtx + TrainOnDataCtx for the
// M^resyn2 proxy and requires the pinned data and weight digests.
func TestGoldenResyn2Weights(t *testing.T) {
	locked, _ := lock.Lock(circuits.MustGenerate("c432"), 16, rand.New(rand.NewSource(1)))
	cfg := omla.DefaultConfig()
	resyn := synth.Resyn2()
	data, err := omla.GenerateDataCtx(context.Background(), locked, func(int) synth.Recipe { return resyn },
		cfg.Rounds, cfg.GatesPerRound, subgraph.Extractor{Hops: cfg.Hops}, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != goldenResyn2Samples {
		t.Errorf("training samples: got %d, want %d", len(data), goldenResyn2Samples)
	}
	if got := dataDigest(data); got != goldenResyn2Data {
		t.Errorf("training data digest drifted: got %s, want %s", got, goldenResyn2Data)
	}
	atk, err := omla.TrainOnDataCtx(context.Background(), data, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := gnn.ParamDigest(atk.Model); got != goldenResyn2Weights {
		t.Errorf("M^resyn2 weight digest drifted: got %s, want %s", got, goldenResyn2Weights)
	}
}
