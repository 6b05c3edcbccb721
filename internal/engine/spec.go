package engine

import (
	"fmt"
	"math"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/coordinator"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
)

// Instance is the flat, kind-independent wire form of a problem
// instance: one []float64 row per constraint/example/point (the
// lpsolve text-format layout), plus the objective row for kinds that
// have one (LP).
type Instance struct {
	Dim       int
	Objective []float64
	Rows      [][]float64
}

// GenParams parameterize an instance generator.
type GenParams struct {
	// N is the instance size (constraints / examples / points).
	N int
	// D is the ambient dimension.
	D int
	// Seed drives the generator.
	Seed uint64
	// Margin is the planted SVM margin (0 = family default).
	Margin float64
	// Noise is the sample noise / shell thickness (0 = family default).
	Noise float64
}

// Generator is one synthetic instance family of a kind.
type Generator struct {
	// Family is the wire name (?generate=<family>). The first
	// generator of a Spec is the kind's default family.
	Family string
	// Doc is a one-line description.
	Doc string
	// Check validates family-specific parameter constraints (optional).
	Check func(p GenParams) error
	// Make synthesizes the instance. Defaults for Margin/Noise are
	// applied here, so equal parameters always mean equal instances.
	Make func(p GenParams) Instance
}

// Spec describes one LP-type problem kind to the engine: how to build
// its domain (P is the kind's problem type — lp.Problem for LP, the
// ambient dimension for the others), how to encode its bases (B) for
// wire transport and resource accounting, how to translate flat rows
// to constraints (C) and back — a constraint's row is also its wire
// form — how to render a basis for humans and HTTP clients, and which
// synthetic families it can generate. Registering a Spec makes the
// kind available to every backend and every consumer at once.
type Spec[P, C, B any] struct {
	// Name is the wire kind ("lp", "svm", "meb", "sea").
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// RowName names one row ("constraint", "example", "point").
	RowName string
	// Objective marks kinds whose instances carry an objective row.
	Objective bool
	// Empty allows empty instances (LP: the box optimum).
	Empty bool
	// SeedMix is XORed into Options.Seed for the distributed backends
	// (the ram reference uses the raw seed), preserving the historical
	// per-kind seed streams.
	SeedMix uint64

	// Dim returns the ambient dimension of a problem value.
	Dim func(p P) int
	// Problem builds the typed problem from a flat instance.
	Problem func(inst Instance) (P, error)
	// NewDomain builds the LP-type domain (the paper's Tb/Tv pair).
	NewDomain func(p P, seed uint64) lptype.Domain[C, B]
	// BasisCodec serializes bases for the communication-metered
	// backends. A constraint needs no codec of its own: it crosses as
	// its row (ItemCodec).
	BasisCodec func(dim int) comm.Codec[B]

	// Width is the numbers-per-row of a flat instance at dimension d.
	Width func(dim int) int
	// Item decodes one flat row (of Width(dim) numbers) into a
	// constraint. Row is its inverse: it appends the item's numbers —
	// all of them, so a malformed item shows as a wrong width — to
	// dst and returns the extended slice.
	Item func(dim int, row []float64) C
	Row  func(dim int, dst []float64, item C) []float64
	// Check validates kind-specific row invariants (optional); CheckRow
	// runs it after its width and finiteness tests.
	Check func(dim int, row []float64) error

	// Render converts a basis into the wire/terminal solution.
	Render func(dim int, b B) Solution

	// Generators lists the kind's synthetic families (first = default).
	Generators []Generator
}

// Model is the registry's non-generic view of a Spec: everything a
// kind-agnostic consumer (HTTP server, CLI, conformance suite) needs,
// with instances in flat row form.
type Model interface {
	// Kind returns the wire name.
	Kind() string
	// Describe returns the one-line description.
	Describe() string
	// RowName names one instance row.
	RowLabel() string
	// HasObjective reports whether instances carry an objective row.
	HasObjective() bool
	// AllowsEmpty reports whether an instance may have zero rows.
	AllowsEmpty() bool
	// RowWidth returns the numbers-per-row at dimension d.
	RowWidth(dim int) int
	// CheckRow is the one row check: exactly RowWidth(dim) numbers,
	// all finite, then the kind's own invariants.
	CheckRow(dim int, row []float64) error
	// Families lists the generator families (first = default).
	Families() []string
	// CheckGenerate validates a family name and its parameters.
	CheckGenerate(family string, p GenParams) error
	// Generate synthesizes an instance.
	Generate(family string, p GenParams) (Instance, error)
	// SolveInstance solves a flat instance on the named backend. The
	// stats are populated (for non-ram backends) even when the solve
	// fails, so callers can report partial resource usage.
	SolveInstance(backend string, inst Instance, opt Options) (Solution, Stats, error)
	// SolveSource solves a columnar dataset source (in-memory store or
	// file-backed binary dataset) on the named backend. Rows are not
	// re-checked here: every road that builds a source has already run
	// CheckRow on each row (Columnar, Encode or ValidateSource). The
	// objective is checked (CheckObjective). Results are bit-identical
	// to SolveInstance over the same rows and options.
	SolveSource(backend string, dim int, objective []float64, src dataset.Source, opt Options) (Solution, Stats, error)
	// SolveSourceBasis is SolveSource returning the raw final basis as
	// well (nil on error); the server's warm-start cache stores it.
	SolveSourceBasis(backend string, dim int, objective []float64, src dataset.Source, opt Options) (Solution, Stats, any, error)
	// VerifyBasisSource re-validates a cached basis against a source of
	// the same instance rows with one scan: ok=true means the rendered
	// solution is the instance's optimum (warm start); ok=false means
	// the caller must solve cold.
	VerifyBasisSource(dim int, objective []float64, src dataset.Source, basis any) (Solution, bool, error)
	// SolveTransport runs the coordinator backend over an explicit
	// comm.Transport — how a fleet of worker processes jointly solves
	// one instance. Bit-identical to SolveSource on the coordinator
	// backend for the same shard contents, seed and options.
	SolveTransport(dim int, objective []float64, tr comm.Transport, opt Options) (Solution, Stats, error)
	// NewSiteHost returns the worker-side protocol host over one shard
	// of an instance of this kind (lpserved -worker).
	NewSiteHost(dim int, objective []float64, src dataset.Source) (coordinator.SiteHost, error)
}

// ItemCodec returns the constraint codec at dimension dim: a
// constraint crosses the wire as its Width(dim) numbers, viewed
// through Item and Row.
func (s *Spec[P, C, B]) ItemCodec(dim int) comm.RowCodec[C] {
	return comm.RowCodec[C]{
		Width: s.Width(dim),
		Item:  func(row []float64) C { return s.Item(dim, row) },
		Row:   func(dst []float64, c C) []float64 { return s.Row(dim, dst, c) },
	}
}

func (s *Spec[P, C, B]) Kind() string         { return s.Name }
func (s *Spec[P, C, B]) Describe() string     { return s.Doc }
func (s *Spec[P, C, B]) RowLabel() string     { return s.RowName }
func (s *Spec[P, C, B]) HasObjective() bool   { return s.Objective }
func (s *Spec[P, C, B]) AllowsEmpty() bool    { return s.Empty }
func (s *Spec[P, C, B]) RowWidth(dim int) int { return s.Width(dim) }

// CheckRow is the one row check every road into a solve runs, in this
// order: exactly Width(dim) numbers, all of them finite, then the
// kind's Check. Finiteness comes before the kind's invariants because
// every comparison with NaN is false: a NaN row is never violated
// (Lemma 3.1's test), so it would leave the problem silently.
func (s *Spec[P, C, B]) CheckRow(dim int, row []float64) error {
	if want := s.Width(dim); len(row) != want {
		return fmt.Errorf("%s needs %d numbers, got %d", s.RowName, want, len(row))
	}
	if !finite(row) {
		return fmt.Errorf("%s has a non-finite number", s.RowName)
	}
	if s.Check == nil {
		return nil
	}
	return s.Check(dim, row)
}

// CheckObjective is the one objective check: a kind with an objective
// needs exactly dim coefficients, and every coefficient given must be
// finite.
func CheckObjective(m Model, dim int, objective []float64) error {
	if m.HasObjective() && len(objective) != dim {
		return fmt.Errorf("%s objective needs %d coefficients, got %d", m.Kind(), dim, len(objective))
	}
	if !finite(objective) {
		return fmt.Errorf("%s objective has a non-finite coefficient", m.Kind())
	}
	return nil
}

// finite reports whether every number in v is neither NaN nor ±Inf.
func finite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Families lists the generator families in declaration order.
func (s *Spec[P, C, B]) Families() []string {
	out := make([]string, len(s.Generators))
	for i, g := range s.Generators {
		out[i] = g.Family
	}
	return out
}

func (s *Spec[P, C, B]) generator(family string) (Generator, error) {
	for _, g := range s.Generators {
		if g.Family == family {
			return g, nil
		}
	}
	return Generator{}, fmt.Errorf("generate.family %q invalid for kind %q (want one of %v)",
		family, s.Name, s.Families())
}

// CheckGenerate validates the family name and its parameters.
func (s *Spec[P, C, B]) CheckGenerate(family string, p GenParams) error {
	g, err := s.generator(family)
	if err != nil {
		return err
	}
	if g.Check != nil {
		return g.Check(p)
	}
	return nil
}

// Generate synthesizes an instance of the given family.
func (s *Spec[P, C, B]) Generate(family string, p GenParams) (Instance, error) {
	g, err := s.generator(family)
	if err != nil {
		return Instance{}, err
	}
	if p.D == 0 {
		p.D = 3
	}
	if p.N < 1 {
		return Instance{}, fmt.Errorf("generate.n must be ≥ 1, got %d", p.N)
	}
	if g.Check != nil {
		if err := g.Check(p); err != nil {
			return Instance{}, err
		}
	}
	return g.Make(p), nil
}

// SolveInstance converts the flat instance to a columnar store —
// Columnar validates the rows on the way in — and solves that: typed
// and flat input share one road below the engine boundary, whose
// single backend switch is SolveSourceBasis.
func (s *Spec[P, C, B]) SolveInstance(backend string, inst Instance, opt Options) (Solution, Stats, error) {
	st, err := Columnar(s, inst)
	if err != nil {
		return Solution{}, Stats{}, err
	}
	return s.SolveSource(backend, inst.Dim, inst.Objective, st, opt)
}

// SolveSource decodes nothing up front: the backend scans the source
// through the domain's flat-row primitives (streaming reads files in
// blocks; coordinator/mpc shard zero-copy views). (The backend switch
// itself lives in SolveSourceBasis, which additionally returns the
// raw basis for the warm-start cache.)
func (s *Spec[P, C, B]) SolveSource(backend string, dim int, objective []float64, src dataset.Source, opt Options) (Solution, Stats, error) {
	sol, stats, _, err := s.SolveSourceBasis(backend, dim, objective, src, opt)
	return sol, stats, err
}
