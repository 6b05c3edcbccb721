package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrShortRow reports a payload that ends inside a row.
var ErrShortRow = errors.New("comm: short row")

// RowCodec is the one constraint codec: a constraint crosses the wire
// as its dataset row — Width float64s, little-endian, in row order —
// so it costs 64·Width bits, Theorem 2's bit(S) with 64-bit words. The
// kind supplies only the views between a row and a constraint (its
// engine Spec's Item and Row); every kind shares the bytes.
type RowCodec[C any] struct {
	// Width is the number of float64s in one row.
	Width int
	// Item views one row as a constraint; the constraint may alias
	// the row.
	Item func(row []float64) C
	// Row appends the constraint's numbers to dst.
	Row func(dst []float64, c C) []float64
}

// AppendRow appends row's wire form to dst: its float64s,
// little-endian, in order.
func AppendRow(dst []byte, row []float64) []byte {
	for _, v := range row {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// Append serializes c onto dst as its row.
func (rc RowCodec[C]) Append(dst []byte, c C) []byte {
	return AppendRow(dst, rc.Row(nil, c))
}

// Decode parses one constraint from the front of src, returning it and
// the number of bytes consumed.
func (rc RowCodec[C]) Decode(src []byte) (C, int, error) {
	var item [1]C
	n := 8 * rc.Width
	if _, err := rc.DecodeRows(item[:], src[:min(n, len(src))]); err != nil {
		return item[0], 0, err
	}
	return item[0], n, nil
}

// Bits returns the encoded size of a constraint in bits.
func (rc RowCodec[C]) Bits(C) int { return 64 * rc.Width }

// DecodeRows decodes src, which must hold exactly len(items) rows, into
// one arena of float64s, and sets items[j] to the constraint of row j.
// Each row is sliced with its capacity capped at its end, so a
// constraint cannot grow into the next row. It returns the number of
// rows decoded: all of them, or — when src ends inside row j — j, with
// an error naming j. Bytes past the last row are an error too, after
// every row was decoded.
func (rc RowCodec[C]) DecodeRows(items []C, src []byte) (int, error) {
	w := rc.Width
	n := min(len(items), len(src)/(8*w))
	arena := make([]float64, n*w)
	for i := range arena {
		arena[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	for j := range n {
		items[j] = rc.Item(arena[j*w : (j+1)*w : (j+1)*w])
	}
	if n < len(items) {
		return n, fmt.Errorf("item %d: %w", n, ErrShortRow)
	}
	if extra := len(src) - 8*len(arena); extra != 0 {
		return n, fmt.Errorf("%d trailing bytes", extra)
	}
	return n, nil
}
