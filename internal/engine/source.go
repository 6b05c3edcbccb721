package engine

import (
	"fmt"
	"strings"

	"lowdimlp/internal/coordinator"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/mpc"
	"lowdimlp/internal/stream"
)

// --- columnar (dataset) dispatch ----------------------------------------
//
// Below the typed boundary (dispatch.go) every backend consumes a
// dataset.Source — an in-memory columnar store or a file-backed binary
// dataset — through the domain's flat-row primitives. SolveSourceBasis
// is the one backend switch.

// SolveSourceBasis is SolveSource returning the raw final basis
// alongside the rendered solution — the warm-start cache stores the
// basis, not the solution, because the basis is what a later solve
// can cheaply re-verify against a source. The basis is nil on error
// and for backends that do not surface one.
//
// The returned basis owns its rows: its support or tight set is copied
// out of the source (and out of any arena a backend decoded into)
// before it leaves, so keeping it keeps O(ν) constraints alive, never
// the input it was solved from. Inside the solve nothing is copied;
// the backends decode constraints that alias the source's rows.
func (s *Spec[P, C, B]) SolveSourceBasis(backend string, dim int, objective []float64, src dataset.Source, opt Options) (Solution, Stats, any, error) {
	var stats Stats
	if err := opt.Check(); err != nil {
		return Solution{}, stats, nil, err
	}
	if dim < 1 {
		return Solution{}, stats, nil, fmt.Errorf("%s: dim must be ≥ 1, got %d", s.Name, dim)
	}
	if want := s.Width(dim); src.Width() != want {
		return Solution{}, stats, nil, fmt.Errorf("%s: source width %d, want %d at dim %d", s.Name, src.Width(), want, dim)
	}
	if src.Rows() == 0 && !s.Empty {
		return Solution{}, stats, nil, fmt.Errorf("%s: empty instance", s.Name)
	}
	if err := CheckObjective(s, dim, objective); err != nil {
		return Solution{}, stats, nil, err
	}
	p, err := s.Problem(Instance{Dim: dim, Objective: objective})
	if err != nil {
		return Solution{}, stats, nil, err
	}
	var b B
	switch backend {
	case BackendRAM:
		// The in-memory reference solver over the materialized source
		// (zero-copy for memory-backed sources, so the items alias the
		// store until the basis is copied out below). The raw seed goes
		// to the domain.
		view, merr := dataset.Materialize(src)
		if merr != nil {
			return Solution{}, stats, nil, merr
		}
		items := make([]C, view.Rows())
		for i := range items {
			items[i] = s.Item(dim, view.Row(i))
		}
		b, err = s.NewDomain(p, opt.Seed).Solve(items)
	case BackendStream:
		// The fused-pass streaming solver — the out-of-core path: a
		// file-backed source is read in blocks and never materialized.
		// With Options.Parallel a sharded source is scanned by one
		// decode goroutine per shard; the merged row order is the
		// original one, so (as everywhere Parallel appears) the answer
		// is bit-identical and only wall-clock changes.
		if opt.EffectiveParallel() {
			src = dataset.Parallel(src)
		}
		var st StreamingStats
		b, st, err = stream.SolveDataset(specAccess(s, p, opt.Seed^s.SeedMix), src, s.streamOptions(dim, opt))
		stats.Stream = &st
	case BackendCoordinator:
		// The source split across opt.Sites() sites round-robin: one
		// shard file per site when the counts line up, zero-copy views
		// of the materialized source otherwise — identical site
		// contents either way.
		var st CoordinatorStats
		ra := specAccess(s, p, opt.Seed^s.SeedMix)
		var sites []*lptype.SiteWeights[C, B]
		if sites, err = lptype.ShardSiteWeights(ra, src, opt.Sites()); err == nil {
			b, st, err = coordinator.Solve(ra.Domain(), sites, s.ItemCodec(dim), s.BasisCodec(dim), opt.coordinator())
		}
		stats.Coordinator = &st
	case BackendMPC:
		// The source distributed round-robin across the machines (shard
		// files map directly onto machines when the counts line up;
		// zero-copy columnar views otherwise).
		var st MPCStats
		co := opt.Core()
		if opt.R == 0 {
			co.R = 0 // let the MPC solver derive r = ⌈1/δ⌉
		}
		b, st, err = mpc.SolveSource(specAccess(s, p, opt.Seed^s.SeedMix), src,
			s.ItemCodec(dim), s.BasisCodec(dim), mpc.Options{Core: co, Delta: opt.Delta})
		stats.MPC = &st
	default:
		return Solution{}, stats, nil, fmt.Errorf("unknown model %q (want %s)", backend, strings.Join(Backends(), ", "))
	}
	if err != nil {
		return Solution{}, stats, nil, err
	}
	if o, ok := any(b).(owner[B]); ok {
		b = o.Own()
	}
	return s.Render(dim, b), stats, b, nil
}

// owner is the method every kind's basis type implements: Own returns
// the basis with its constraint rows copied into an allocation of its
// own (lp.Basis.Own and its siblings). It lives on the basis rather
// than the domain, so no wrapper around a domain can hide it.
type owner[B any] interface{ Own() B }

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
