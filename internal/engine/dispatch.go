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

// Stream re-exports the multi-pass input abstraction.
type Stream[C any] = stream.Stream[C]

// NewSliceStream adapts a slice to a Stream.
func NewSliceStream[C any](items []C) Stream[C] { return stream.NewSliceStream(items) }

// Partition splits items across k sites round-robin.
func Partition[C any](items []C, k int) [][]C {
	parts := make([][]C, k)
	for i, c := range items {
		parts[i%k] = append(parts[i%k], c)
	}
	return parts
}

// --- typed dispatchers: the engine boundary ----------------------------
//
// Typed input ([]C, [][]C, Stream[C]) is validated and converted to
// flat rows here, once; below this boundary every backend speaks
// dataset.Source + lptype.RowAccess (SolveSourceBasis, source.go).
// Seeds, RNG consumption and arithmetic do not depend on which side of
// the boundary the input arrived, so typed and flat entry points
// return bit-identical results for equal inputs (the dataset
// conformance suite pins this for every registered kind).

// encodeItem appends item i's flat row to dst after checking it the
// way Columnar checks a flat row: exactly Width(dim) numbers, and the
// kind's row invariants (Check).
func (s *Spec[P, C, B]) encodeItem(dim int, dst []float64, i int, item C) ([]float64, error) {
	lo := len(dst)
	dst = s.Row(dim, dst, item)
	if want := s.Width(dim); len(dst)-lo != want {
		return nil, fmt.Errorf("%s: item %d needs %d numbers, got %d", s.Name, i, want, len(dst)-lo)
	}
	if err := s.CheckRow(dim, dst[lo:]); err != nil {
		return nil, fmt.Errorf("%s: item %d: %w", s.Name, i, err)
	}
	return dst, nil
}

// Encode validates typed items and converts them to a columnar store —
// the typed twin of Columnar, and the one conversion every typed
// entry point (and the experiment harness) goes through.
func (s *Spec[P, C, B]) Encode(dim int, items []C) (*dataset.Store, error) {
	if dim < 1 {
		return nil, fmt.Errorf("%s: dim must be ≥ 1, got %d", s.Name, dim)
	}
	st := dataset.NewStore(s.Width(dim))
	st.Grow(len(items))
	var row []float64
	for i, item := range items {
		var err error
		if row, err = s.encodeItem(dim, row[:0], i, item); err != nil {
			return nil, err
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

// SolveRAM solves with the in-memory reference solver (the oracle the
// distributed backends are tested against). The items are validated
// like every other typed input but not converted: the reference
// solves the typed slice itself. The raw seed goes to the domain,
// matching the historical per-kind entry points bit for bit.
func SolveRAM[P, C, B any](s *Spec[P, C, B], p P, items []C, opt Options) (B, error) {
	dim := s.Dim(p)
	var row []float64
	for i, item := range items {
		var err error
		if row, err = s.encodeItem(dim, row[:0], i, item); err != nil {
			var zero B
			return zero, err
		}
	}
	return s.NewDomain(p, opt.Seed).Solve(items)
}

// SolveStreaming solves over a multi-pass stream of n items
// (Theorems 1/5/6; pass n ≤ 0 to count with one extra pass). The
// stream is never materialized: every pass encodes (and validates)
// the items into the scan's batch buffer.
func SolveStreaming[P, C, B any](s *Spec[P, C, B], p P, st Stream[C], n int, opt Options) (B, StreamingStats, error) {
	dim := s.Dim(p)
	if dim < 1 {
		var zero B
		return zero, StreamingStats{}, fmt.Errorf("%s: dim must be ≥ 1, got %d", s.Name, dim)
	}
	encode := func(dst []float64, i int, item C) ([]float64, error) { return s.encodeItem(dim, dst, i, item) }
	return stream.Solve(specAccess(s, p, opt.Seed^s.SeedMix), st, n, s.Width(dim), encode, s.streamOptions(dim, opt))
}

// SolveCoordinator solves over a k-site partition (Theorem 2). The
// partition stays explicit — one store per part, however uneven.
func SolveCoordinator[P, C, B any](s *Spec[P, C, B], p P, parts [][]C, opt Options) (B, CoordinatorStats, error) {
	dim := s.Dim(p)
	shards := make([]dataset.View, len(parts))
	for i, part := range parts {
		st, err := s.Encode(dim, part)
		if err != nil {
			var zero B
			return zero, CoordinatorStats{}, fmt.Errorf("part %d: %w", i, err)
		}
		shards[i] = st.View()
	}
	ra := specAccess(s, p, opt.Seed^s.SeedMix)
	sites := make([]*lptype.SiteWeights[C, B], len(shards))
	for i, v := range shards {
		sites[i] = lptype.NewSiteWeights(ra, v)
	}
	return coordinator.Solve(ra.Domain(), sites, s.ItemCodec(dim), s.BasisCodec(dim), opt.coordinator())
}

// SolveMPC solves in the MPC model with per-machine load O~(n^Delta)
// (Theorem 3).
func SolveMPC[P, C, B any](s *Spec[P, C, B], p P, items []C, opt Options) (B, MPCStats, error) {
	st, err := s.Encode(s.Dim(p), items)
	if err != nil {
		var zero B
		return zero, MPCStats{}, err
	}
	return solveSourceMPC(s, p, st, opt)
}
