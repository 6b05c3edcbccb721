package engine

import (
	"fmt"

	"lowdimlp/internal/coordinator"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/mpc"
	"lowdimlp/internal/stream"
)

// Per-backend stats, re-exported so spec authors and consumers need
// not import the substrate packages.
type (
	StreamingStats   = stream.Stats
	CoordinatorStats = coordinator.Stats
	MPCStats         = mpc.Stats
)

// --- typed items: the engine boundary ---------------------------------
//
// Every backend speaks dataset.Source + lptype.RowAccess
// (SolveSourceBasis, source.go). Typed items cross into it here, once:
// Encode converts them to flat rows and checks each one, and Access
// rebuilds the typed view over a flat row for the domain. The
// experiment harness is the one caller that starts from typed items.

// Encode converts typed items to a columnar store, running CheckRow on
// each item's flat row — the typed twin of Columnar.
func (s *Spec[P, C, B]) Encode(dim int, items []C) (*dataset.Store, error) {
	if dim < 1 {
		return nil, fmt.Errorf("%s: dim must be ≥ 1, got %d", s.Name, dim)
	}
	st := dataset.NewStore(s.Width(dim))
	st.Grow(len(items))
	var row []float64
	for i, item := range items {
		row = s.Row(dim, row[:0], item)
		if err := s.CheckRow(dim, row); err != nil {
			return nil, fmt.Errorf("%s: item %d: %w", s.Name, i, err)
		}
		st.AppendRow(row)
	}
	return st, nil
}

// Access builds the columnar access layer over an explicit domain of
// the kind (experiments pin their own domain seeds).
func (s *Spec[P, C, B]) Access(dim int, dom lptype.Domain[C, B]) lptype.RowAccess[C, B] {
	return lptype.NewRowAccess(dom, func(row []float64) C { return s.Item(dim, row) })
}

// specAccess builds the columnar access layer for a spec's domain.
func specAccess[P, C, B any](s *Spec[P, C, B], p P, seed uint64) lptype.RowAccess[C, B] {
	return s.Access(s.Dim(p), s.NewDomain(p, seed))
}

// streamOptions are the stream-backend options of a solve: the core
// options plus the codec sizes that drive the space accounting.
func (s *Spec[P, C, B]) streamOptions(dim int, opt Options) stream.Options {
	var zc C
	var zb B
	return stream.Options{
		Core:         opt.Core(),
		BitsPerItem:  s.ItemCodec(dim).Bits(zc),
		BitsPerBasis: s.BasisCodec(dim).Bits(zb),
	}
}

func (o Options) coordinator() coordinator.Options {
	return coordinator.Options{Core: o.Core(), Trace: o.Trace}
}
