package engine

import "fmt"

// The codec round trips below are conformance probes, not part of the
// Model a consumer sees: conformance_test.go reaches them through a
// test-local interface over the registered *Spec values.

// RowRoundTrip decodes row into a constraint and re-encodes it.
func (s *Spec[P, C, B]) RowRoundTrip(dim int, row []float64) []float64 {
	return s.Row(dim, nil, s.Item(dim, row))
}

// ItemWire encodes rows through the item codec, one Append per row's
// constraint.
func (s *Spec[P, C, B]) ItemWire(dim int, rows [][]float64) []byte {
	c := s.ItemCodec(dim)
	var wire []byte
	for _, row := range rows {
		wire = c.Append(wire, s.Item(dim, row))
	}
	return wire
}

// DecodeItems decodes k constraints from payload at once (DecodeRows)
// and re-flattens the n it decoded.
func (s *Spec[P, C, B]) DecodeItems(dim int, payload []byte, k int) ([][]float64, int, error) {
	items := make([]C, k)
	n, err := s.ItemCodec(dim).DecodeRows(items, payload)
	rows := make([][]float64, n)
	for j := range rows {
		rows[j] = s.Row(dim, nil, items[j])
	}
	return rows, n, err
}

// DecodeItem decodes one constraint from the front of payload (Decode)
// and re-flattens it, with the number of bytes consumed.
func (s *Spec[P, C, B]) DecodeItem(dim int, payload []byte) ([]float64, int, error) {
	item, n, err := s.ItemCodec(dim).Decode(payload)
	if err != nil {
		return nil, 0, err
	}
	return s.Row(dim, nil, item), n, nil
}

// BasisRoundTrip solves inst with the ram reference, pushes the basis
// through the basis codec, and renders both sides.
func (s *Spec[P, C, B]) BasisRoundTrip(inst Instance, opt Options) (Solution, Solution, error) {
	st, err := Columnar(s, inst)
	if err != nil {
		return Solution{}, Solution{}, err
	}
	orig, _, basis, err := s.SolveSourceBasis(BackendRAM, inst.Dim, inst.Objective, st, opt)
	if err != nil {
		return Solution{}, Solution{}, err
	}
	c := s.BasisCodec(inst.Dim)
	enc := c.Append(nil, basis.(B))
	dec, n, err := c.Decode(enc)
	if err != nil {
		return Solution{}, Solution{}, err
	}
	if n != len(enc) {
		return Solution{}, Solution{}, fmt.Errorf("%s: basis codec consumed %d of %d bytes", s.Name, n, len(enc))
	}
	return orig, s.Render(inst.Dim, dec), nil
}
