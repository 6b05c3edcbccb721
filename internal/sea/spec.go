package sea

import (
	"math/rand/v2"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
)

// Spec is the engine descriptor for the smallest-enclosing-annulus
// kind. Registering it (internal/models does) is all it takes to
// surface SEA in the library instance API, lpserved and lpsolve.
var Spec = &engine.Spec[int, Point, Basis]{
	Name:    "sea",
	Doc:     "smallest enclosing annulus: min R²−r² shell covering all points (roundness)",
	RowName: "point",
	SeedMix: 0x5ea,

	Dim:     func(d int) int { return d },
	Problem: func(inst engine.Instance) (int, error) { return inst.Dim, nil },
	NewDomain: func(d int, seed uint64) lptype.Domain[Point, Basis] {
		return NewDomain(d, seed)
	},
	BasisCodec: func(d int) comm.Codec[Basis] { return BasisCodec{Dim: d} },

	Width: func(d int) int { return d },
	Item:  func(d int, row []float64) Point { return Point(row) },
	Row:   func(_ int, dst []float64, p Point) []float64 { return append(dst, p...) },

	Render: func(d int, b Basis) engine.Solution {
		a := b.Annulus()
		return engine.Solution{Fields: []engine.Field{
			engine.VecField("center", "center", a.Center),
			engine.NumField("inner", "r", a.InnerRadius()),
			engine.NumField("outer", "R", a.OuterRadius()),
			engine.NumField("width", "width", a.Width()),
		}}
	},

	Generators: []engine.Generator{
		{
			Family: "ring",
			Doc:    "points in a planted spherical shell (noise = relative thickness, default 0.1)",
			Make: func(p engine.GenParams) engine.Instance {
				th := thickness(p.Noise)
				return pointInstance(p.D, p.N, func(pt []float64, rr *numeric.RowRand, i int) {
					ringPoint(pt, th, rr.Seed(ringSeeds(p.Seed, i)))
				})
			},
		},
		{
			Family: "gaussian",
			Doc:    "standard Gaussian cloud",
			Make: func(p engine.GenParams) engine.Instance {
				return pointInstance(p.D, p.N, func(pt []float64, rr *numeric.RowRand, i int) {
					gaussianPoint(pt, rr.Seed(gaussianSeeds(p.Seed, i)))
				})
			},
		},
	},
}

func thickness(noise float64) float64 {
	if noise == 0 {
		return 0.1
	}
	return noise
}

// pointInstance fills n points in R^d, back to back in one array, with
// one generator re-seeded per point: fill(pt, rr, i) writes point i.
func pointInstance(d, n int, fill func(pt []float64, rr *numeric.RowRand, i int)) engine.Instance {
	rows := numeric.Rows(n, d)
	rr := numeric.NewRowRand()
	for i, row := range rows {
		fill(row, rr, i)
	}
	return engine.Instance{Dim: d, Rows: rows}
}

// RingAt regenerates point i of the ring family without materializing
// the instance: a unit direction scaled into the shell
// [R₀(1−thickness), R₀] (R₀ = 5) around the all-ones center, so the
// optimal annulus is planted and non-trivial.
func RingAt(d int, seed uint64, thickness float64, i int) Point {
	p := make(Point, d)
	ringPoint(p, thickness, numeric.NewRand(ringSeeds(seed, i)))
	return p
}

// ringSeeds are the generator seeds of ring point i.
func ringSeeds(seed uint64, i int) (uint64, uint64) { return seed ^ 0x5ea71, uint64(i) + 1 }

// ringPoint fills p with one ring point drawn from rng.
func ringPoint(p []float64, thickness float64, rng *rand.Rand) {
	for j := range p {
		p[j] = rng.NormFloat64()
	}
	nrm := numeric.Norm2(p)
	if nrm == 0 {
		p[0] = 1
		nrm = 1
	}
	const r0 = 5
	rad := r0 * (1 - thickness*rng.Float64())
	for j := range p {
		p[j] = 1 + p[j]/nrm*rad
	}
}

// GaussianAt regenerates point i of the gaussian family.
func GaussianAt(d int, seed uint64, i int) Point {
	p := make(Point, d)
	gaussianPoint(p, numeric.NewRand(gaussianSeeds(seed, i)))
	return p
}

// gaussianSeeds are the generator seeds of gaussian point i.
func gaussianSeeds(seed uint64, i int) (uint64, uint64) { return seed ^ 0x5ea99, uint64(i) + 1 }

// gaussianPoint fills p with one standard Gaussian point drawn from rng.
func gaussianPoint(p []float64, rng *rand.Rand) {
	for j := range p {
		p[j] = rng.NormFloat64()
	}
}
