package lp

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrShortBuffer reports a truncated encoding.
var ErrShortBuffer = errors.New("lp: short buffer")

// BasisCodec serializes a Basis as its solution point (the only part a
// remote party needs to run violation tests) plus the objective value.
type BasisCodec struct{ Dim int }

// Append serializes b onto dst.
func (c BasisCodec) Append(dst []byte, b Basis) []byte {
	for _, v := range b.Sol.X {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Sol.Value))
}

// Decode parses one basis from src. The tight-constraint list is not
// transmitted; the decoded basis supports violation tests only.
func (c BasisCodec) Decode(src []byte) (Basis, int, error) {
	need := 8 * (c.Dim + 1)
	if len(src) < need {
		return Basis{}, 0, ErrShortBuffer
	}
	x := make([]float64, c.Dim)
	for i := range x {
		x[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(src[8*c.Dim:]))
	return Basis{Sol: Solution{X: x, Value: v}}, need, nil
}

// Bits returns the encoded size of a basis in bits.
func (c BasisCodec) Bits(Basis) int { return 64 * (c.Dim + 1) }
