// Package models is the catalog: the engine Specs of the repository's
// problem kinds and their process-wide registration. Importing it (the
// root lowdimlp package, internal/server and the experiment harness
// do) populates the engine registry; nothing else in the system names
// a kind explicitly.
//
// To add a problem kind, write a Spec (typically next to its domain
// package — see internal/sea) and add one Register line to init below.
package models

import (
	"fmt"
	"math"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/sea"
	"lowdimlp/internal/svm"
	"lowdimlp/internal/workload"
)

func init() {
	engine.Register(LP)
	engine.Register(SVM)
	engine.Register(MEB)
	engine.Register(sea.Spec)
}

// LP is the linear-programming kind (§4.1 of the paper).
var LP = &engine.Spec[lp.Problem, lp.Halfspace, lp.Basis]{
	Name:      "lp",
	Doc:       "linear program: minimize c·x subject to a·x ≤ b constraints",
	RowName:   "constraint",
	Objective: true,
	Empty:     true, // the box optimum
	SeedMix:   0x10ca1,

	Dim: func(p lp.Problem) int { return p.Dim },
	Problem: func(inst engine.Instance) (lp.Problem, error) {
		if len(inst.Objective) != inst.Dim {
			return lp.Problem{}, fmt.Errorf("lp objective needs %d coefficients, got %d",
				inst.Dim, len(inst.Objective))
		}
		return lp.NewProblem(inst.Objective), nil
	},
	NewDomain: func(p lp.Problem, seed uint64) lptype.Domain[lp.Halfspace, lp.Basis] {
		return lp.NewDomain(p, seed)
	},
	BasisCodec: func(d int) comm.Codec[lp.Basis] { return lp.BasisCodec{Dim: d} },

	Width: func(d int) int { return d + 1 },
	Item: func(d int, row []float64) lp.Halfspace {
		return lp.Halfspace{A: row[:d], B: row[d]}
	},
	Row: lpRow,

	Render: func(d int, b lp.Basis) engine.Solution {
		return engine.Solution{Fields: []engine.Field{
			engine.VecField("x", "x*", b.Sol.X),
			engine.NumField("value", "objective", b.Sol.Value),
		}}
	},

	Generators: []engine.Generator{
		{
			Family: "sphere",
			Doc:    "sphere-tangent random constraints, Gaussian objective",
			Make: func(p engine.GenParams) engine.Instance {
				return lpInstance(workload.SphereLPRows(p.D, p.N, p.Seed))
			},
		},
		{
			Family: "box",
			Doc:    "rotated box facets plus redundant supporting halfspaces",
			Make: func(p engine.GenParams) engine.Instance {
				return lpInstance(workload.BoxLPRows(p.D, p.N, p.Seed))
			},
		},
		{
			Family: "chebyshev",
			Doc:    "L∞ polynomial regression (d = degree+2; noise default 0.1)",
			Check: func(p engine.GenParams) error {
				if p.D < 2 {
					return fmt.Errorf("generate.family chebyshev needs d ≥ 2 (d = degree+2)")
				}
				return nil
			},
			Make: func(p engine.GenParams) engine.Instance {
				noise := p.Noise
				if noise == 0 {
					noise = 0.1
				}
				// D is coefficients+error-bound; samples come in pairs, so
				// N counts constraints and the generator gets ⌈N/2⌉ samples.
				obj, rows, _ := workload.ChebyshevRows(p.D-2, (p.N+1)/2, noise, p.Seed)
				return lpInstance(obj, rows)
			},
		},
	},
}

// lpRow appends one halfspace's wire row a_1…a_d b to dst.
func lpRow(_ int, dst []float64, h lp.Halfspace) []float64 {
	return append(append(dst, h.A...), h.B)
}

// svmRow appends one example's wire row x_1…x_d y to dst.
func svmRow(_ int, dst []float64, e svm.Example) []float64 {
	return append(append(dst, e.X...), e.Y)
}

// lpInstance is a generated LP's instance: the generators' wire rows
// a_1…a_d b are the instance's rows as they are.
func lpInstance(obj []float64, rows [][]float64) engine.Instance {
	return engine.Instance{Dim: len(obj), Objective: obj, Rows: rows}
}

// SVM is the hard-margin support-vector-machine kind (§4.2).
var SVM = &engine.Spec[int, svm.Example, svm.Basis]{
	Name:    "svm",
	Doc:     "hard-margin SVM: maximize the margin of ±1-labeled examples",
	RowName: "example",

	Dim:     func(d int) int { return d },
	Problem: func(inst engine.Instance) (int, error) { return inst.Dim, nil },
	NewDomain: func(d int, _ uint64) lptype.Domain[svm.Example, svm.Basis] {
		return svm.NewDomain(d)
	},
	BasisCodec: func(d int) comm.Codec[svm.Basis] { return svm.BasisCodec{Dim: d} },

	Width: func(d int) int { return d + 1 },
	Item: func(d int, row []float64) svm.Example {
		return svm.Example{X: row[:d], Y: row[d]}
	},
	Row: svmRow,
	Check: func(d int, row []float64) error {
		if y := row[d]; y != 1 && y != -1 {
			return fmt.Errorf("svm label must be ±1, got %v", y)
		}
		return nil
	},

	Render: func(d int, b svm.Basis) engine.Solution {
		n2 := b.Sol.Norm2
		margin := 0.0
		if n2 > 0 {
			margin = 1 / math.Sqrt(n2)
		}
		return engine.Solution{Fields: []engine.Field{
			engine.VecField("u", "u", b.Sol.U),
			engine.NumField("norm2", "‖u‖²", n2),
			engine.NumField("margin", "margin", margin),
		}}
	},

	Generators: []engine.Generator{
		{
			Family: "separable",
			Doc:    "separable cloud with a planted margin (default 0.5)",
			Make: func(p engine.GenParams) engine.Instance {
				margin := p.Margin
				if margin == 0 {
					margin = 0.5
				}
				rows, _ := workload.SeparableSVMRows(p.D, p.N, margin, p.Seed)
				return engine.Instance{Dim: p.D, Rows: rows}
			},
		},
	},
}

// MEB is the minimum-enclosing-ball kind (§4.3).
var MEB = &engine.Spec[int, meb.Point, meb.Basis]{
	Name:    "meb",
	Doc:     "minimum enclosing ball: smallest ball covering all points",
	RowName: "point",

	Dim:     func(d int) int { return d },
	Problem: func(inst engine.Instance) (int, error) { return inst.Dim, nil },
	NewDomain: func(d int, _ uint64) lptype.Domain[meb.Point, meb.Basis] {
		return meb.NewDomain(d)
	},
	BasisCodec: func(d int) comm.Codec[meb.Basis] { return meb.BasisCodec{Dim: d} },

	Width: func(d int) int { return d },
	Item:  func(d int, row []float64) meb.Point { return meb.Point(row) },
	Row:   func(_ int, dst []float64, p meb.Point) []float64 { return append(dst, p...) },

	Render: func(d int, b meb.Basis) engine.Solution {
		return engine.Solution{Fields: []engine.Field{
			engine.VecField("center", "center", b.B.Center),
			engine.NumField("radius", "radius", b.B.Radius()),
		}}
	},

	Generators: []engine.Generator{
		{
			Family: "gaussian",
			Doc:    "standard Gaussian cloud",
			Make:   mebFamily(workload.MEBGaussian),
		},
		{
			Family: "ball",
			Doc:    "uniform in the unit ball",
			Make:   mebFamily(workload.MEBUniformBall),
		},
		{
			Family: "shell",
			Doc:    "nearly co-spherical points (degenerate for pivoting)",
			Make:   mebFamily(workload.MEBShell),
		},
		{
			Family: "lowrank",
			Doc:    "points confined to a random 2-D subspace",
			Make:   mebFamily(workload.MEBLowRank),
		},
	},
}

func mebFamily(kind workload.MEBKind) func(engine.GenParams) engine.Instance {
	return func(p engine.GenParams) engine.Instance {
		return engine.Instance{Dim: p.D, Rows: workload.MEBCloudRows(kind, p.D, p.N, p.Seed)}
	}
}
