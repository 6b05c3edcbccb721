package sea

import (
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
	ItemCodec:  func(d int) comm.Codec[Point] { return PointCodec{Dim: d} },
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
				return pointInstance(p.D, p.N, func(i int) Point {
					return RingAt(p.D, p.Seed, thickness(p.Noise), i)
				})
			},
		},
		{
			Family: "gaussian",
			Doc:    "standard Gaussian cloud",
			Make: func(p engine.GenParams) engine.Instance {
				return pointInstance(p.D, p.N, func(i int) Point {
					return GaussianAt(p.D, p.Seed, i)
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

func pointInstance(d, n int, at func(i int) Point) engine.Instance {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = at(i)
	}
	return engine.Instance{Dim: d, Rows: rows}
}

// RingAt regenerates point i of the ring family without materializing
// the instance: a unit direction scaled into the shell
// [R₀(1−thickness), R₀] (R₀ = 5) around the all-ones center, so the
// optimal annulus is planted and non-trivial.
func RingAt(d int, seed uint64, thickness float64, i int) Point {
	rng := numeric.NewRand(seed^0x5ea71, uint64(i)+1)
	p := make(Point, d)
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
	return p
}

// GaussianAt regenerates point i of the gaussian family.
func GaussianAt(d int, seed uint64, i int) Point {
	rng := numeric.NewRand(seed^0x5ea99, uint64(i)+1)
	p := make(Point, d)
	for j := range p {
		p[j] = rng.NormFloat64()
	}
	return p
}
