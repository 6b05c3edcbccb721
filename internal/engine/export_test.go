package engine

import "fmt"

// The codec round trips below are conformance probes, not part of the
// Model a consumer sees: conformance_test.go reaches them through a
// test-local interface over the registered *Spec values.

// RowRoundTrip decodes row into a constraint and re-encodes it.
func (s *Spec[P, C, B]) RowRoundTrip(dim int, row []float64) []float64 {
	return s.Row(dim, nil, s.Item(dim, row))
}

// CodecRoundTrip encodes the row's constraint through the item codec
// and back, returning the re-flattened row.
func (s *Spec[P, C, B]) CodecRoundTrip(dim int, row []float64) ([]float64, error) {
	c := s.ItemCodec(dim)
	enc := c.Append(nil, s.Item(dim, row))
	item, n, err := c.Decode(enc)
	if err != nil {
		return nil, err
	}
	if n != len(enc) {
		return nil, fmt.Errorf("%s: item codec consumed %d of %d bytes", s.Name, n, len(enc))
	}
	return s.Row(dim, nil, item), nil
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
