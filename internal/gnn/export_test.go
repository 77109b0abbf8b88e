package gnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"github.com/nyu-secml/almost/internal/nn"
)

// ParamDigest hashes the exact bits of every trainable parameter of m,
// in layer order (GIN layers, then the readout head).
func ParamDigest(m *Model) string {
	linears := []*nn.Linear{}
	for _, l := range m.layers {
		linears = append(linears, l.l1, l.l2)
	}
	linears = append(linears, m.head1, m.head2)
	h := sha256.New()
	var buf [8]byte
	for _, l := range linears {
		for _, p := range l.Params() {
			for _, v := range p.W.D {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
