package engine

import (
	"fmt"
	"strings"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/stream"
)

// StreamSolver is one streaming solve turned inside out for the
// scan-sharing batch scheduler: instead of owning its scan loop it
// exposes one pass at a time, so a scheduler can drive many solvers'
// passes through one shared cursor scan (dataset.SharedPass). The
// contract mirrors stream.DatasetSolver — BeginPass, then every
// source row in order through RowBlock, then EndPass; repeat until Done —
// and the result is bit-identical to SolveSource on the stream
// backend for the same rows and options (conformance-pinned).
type StreamSolver interface {
	// BlockSink: solvers accept whole cursor batches (RowBlock), so
	// shared scans run the domains' block kernels.
	dataset.BlockSink
	// BeginPass arms the solver for one scan over the source.
	BeginPass()
	// EndPass closes the pass; a non-nil error is terminal.
	EndPass() error
	// Done reports whether no further passes are needed.
	Done() bool
	// Result renders the solution once Done; Basis exposes the raw
	// final basis (for the server's warm-start cache).
	Result() (Solution, Stats, error)
	Basis() any
}

// NewStreamSolver builds a pass-at-a-time streaming solver for an
// instance of n rows at the given dimension. Seed mixing, net sizing
// and RNG consumption match SolveSource's stream backend exactly, so
// driving the returned solver over the instance's rows (solo or
// through a shared scan) returns a bit-identical solution.
func (s *Spec[P, C, B]) NewStreamSolver(dim int, objective []float64, n int, opt Options) (StreamSolver, error) {
	if dim < 1 {
		return nil, fmt.Errorf("%s: dim must be ≥ 1, got %d", s.Name, dim)
	}
	if n == 0 && !s.Empty {
		return nil, fmt.Errorf("%s: empty instance", s.Name)
	}
	p, err := s.Problem(Instance{Dim: dim, Objective: objective})
	if err != nil {
		return nil, err
	}
	ds := stream.NewDatasetSolver(specAccess(s, p, opt.Seed^s.SeedMix), n, s.Width(dim), s.streamOptions(dim, opt))
	return &specStreamSolver[P, C, B]{spec: s, dim: dim, ds: ds}, nil
}

// specStreamSolver adapts the generic stream.DatasetSolver to the
// registry's non-generic StreamSolver view.
type specStreamSolver[P, C, B any] struct {
	spec *Spec[P, C, B]
	dim  int
	ds   *stream.DatasetSolver[C, B]
}

func (w *specStreamSolver[P, C, B]) RowBlock(rows []dataset.Row) { w.ds.RowBlock(rows) }
func (w *specStreamSolver[P, C, B]) BeginPass()                  { w.ds.BeginPass() }
func (w *specStreamSolver[P, C, B]) EndPass() error              { return w.ds.EndPass() }
func (w *specStreamSolver[P, C, B]) Done() bool                  { return w.ds.Done() }

func (w *specStreamSolver[P, C, B]) Result() (Solution, Stats, error) {
	b, st, err := w.ds.Result()
	stats := Stats{Stream: &st}
	if err != nil {
		return Solution{}, stats, err
	}
	return w.spec.Render(w.dim, b), stats, nil
}

func (w *specStreamSolver[P, C, B]) Basis() any {
	if !w.ds.Done() {
		return nil
	}
	b, _, err := w.ds.Result()
	if err != nil {
		return nil
	}
	return b
}

// SolveSourceBasis is SolveSource returning the raw final basis
// alongside the rendered solution — the warm-start cache stores the
// basis, not the solution, because the basis is what a later solve
// can cheaply re-verify against a source. The basis is nil on error
// and for backends that do not surface one.
func (s *Spec[P, C, B]) SolveSourceBasis(backend string, dim int, objective []float64, src dataset.Source, opt Options) (Solution, Stats, any, error) {
	var stats Stats
	if dim < 1 {
		return Solution{}, stats, nil, fmt.Errorf("%s: dim must be ≥ 1, got %d", s.Name, dim)
	}
	if want := s.Width(dim); src.Width() != want {
		return Solution{}, stats, nil, fmt.Errorf("%s: source width %d, want %d at dim %d", s.Name, src.Width(), want, dim)
	}
	if src.Rows() == 0 && !s.Empty {
		return Solution{}, stats, nil, fmt.Errorf("%s: empty instance", s.Name)
	}
	p, err := s.Problem(Instance{Dim: dim, Objective: objective})
	if err != nil {
		return Solution{}, stats, nil, err
	}
	var b B
	switch backend {
	case BackendRAM:
		b, err = SolveSourceRAM(s, p, src, opt)
	case BackendStream:
		var st StreamingStats
		b, st, err = SolveSourceStreaming(s, p, src, opt)
		stats.Stream = &st
	case BackendCoordinator:
		var st CoordinatorStats
		b, st, err = SolveSourceCoordinator(s, p, src, opt)
		stats.Coordinator = &st
	case BackendMPC:
		var st MPCStats
		b, st, err = SolveSourceMPC(s, p, src, opt)
		stats.MPC = &st
	default:
		return Solution{}, stats, nil, fmt.Errorf("unknown model %q (want %s)", backend, strings.Join(Backends(), ", "))
	}
	if err != nil {
		return Solution{}, stats, nil, err
	}
	return s.Render(dim, b), stats, b, nil
}

// VerifyBasisSource attempts a warm start from a previously computed
// basis of the SAME instance rows: one verification pass over the
// source through the domain's flat-row violation test. If no row
// violates the basis, the LP-type locality lemma (Lemma 3.1: a basis
// with no violators among constraints drawn from its own instance is
// a basis of the whole instance) makes Render(basis) the instance's
// optimum, bit-identical to what the solve that produced the basis
// rendered — so a repeated-seed request or a `?delta=`/`?r=` overlay
// re-solve costs one scan instead of a full multi-pass solve. Any
// violator (or a basis of the wrong type/width) returns ok=false and
// the caller falls back to the exact cold path. The soundness
// precondition — the basis came from these same rows — is the
// caller's to enforce (the server keys its basis cache by instance
// digest, which is exactly that).
func (s *Spec[P, C, B]) VerifyBasisSource(dim int, objective []float64, src dataset.Source, basis any) (Solution, bool, error) {
	b, ok := basis.(B)
	if !ok {
		return Solution{}, false, nil
	}
	if dim < 1 || src.Width() != s.Width(dim) {
		return Solution{}, false, nil
	}
	p, err := s.Problem(Instance{Dim: dim, Objective: objective})
	if err != nil {
		return Solution{}, false, err
	}
	ra := specAccess(s, p, 0) // seed irrelevant: the pass only tests violations
	cur := src.NewCursor()
	defer dataset.CloseCursor(cur)
	if err := cur.Reset(); err != nil {
		return Solution{}, false, err
	}
	batch := make([]dataset.Row, dataset.DefaultBatchRows)
	idx := make([]int32, 0, dataset.DefaultBatchRows)
	for {
		nr, err := cur.Next(batch)
		if err != nil {
			return Solution{}, false, err
		}
		if nr == 0 {
			return s.Render(dim, b), true, nil
		}
		// Whole-block violation test through the domain's kernels: the
		// outcome (any violator anywhere ⇒ cold path) is identical to
		// the per-row scan, we just learn it a block later at worst.
		if idx = ra.ViolatesBlock(b, batch[:nr], idx); len(idx) > 0 {
			return Solution{}, false, nil
		}
	}
}
