package sea

import (
	"encoding/binary"
	"errors"
	"math"
)

// ErrShortBuffer reports a truncated encoding.
var ErrShortBuffer = errors.New("sea: short buffer")

// BasisCodec serializes a basis as its lifted solution (c, u, v) —
// the only state a remote party needs for violation tests. The null
// annulus is encoded as all-NaN.
type BasisCodec struct{ Dim int }

// Append serializes b onto dst.
func (c BasisCodec) Append(dst []byte, b Basis) []byte {
	if b.IsEmpty() {
		for i := 0; i < c.Dim+2; i++ {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(math.NaN()))
		}
		return dst
	}
	for _, v := range b.X {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// Decode parses one basis from src (support points not transmitted).
func (c BasisCodec) Decode(src []byte) (Basis, int, error) {
	need := 8 * (c.Dim + 2)
	if len(src) < need {
		return Basis{}, 0, ErrShortBuffer
	}
	x := make([]float64, c.Dim+2)
	for i := range x {
		x[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	if math.IsNaN(x[c.Dim]) {
		return Basis{}, need, nil
	}
	return Basis{X: x}, need, nil
}

// Bits returns the encoded size of a basis in bits.
func (c BasisCodec) Bits(Basis) int { return 64 * (c.Dim + 2) }
