package lowdimlp_test

import (
	"fmt"
	"math"

	"lowdimlp"
)

// Solve a tiny LP in RAM: minimize x+y subject to x ≥ 1, y ≥ 2. Each
// row a₁ … a_d b is one constraint a·x ≤ b.
func ExampleSolveInstance() {
	inst := lowdimlp.Instance{
		Dim:       2,
		Objective: []float64{1, 1},
		Rows: [][]float64{
			{-1, 0, -1}, // -x ≤ -1  ⇔  x ≥ 1
			{0, -1, -2}, // -y ≤ -2  ⇔  y ≥ 2
		},
	}
	sol, _, err := lowdimlp.SolveInstance("lp", "ram", inst, lowdimlp.Options{Seed: 1})
	if err != nil {
		panic(err)
	}
	x, _ := sol.Vector("x")
	value, _ := sol.Scalar("value")
	fmt.Printf("x* = %v, objective %v\n", x, value)
	// Output: x* = [1 2], objective 3
}

// The same LP over a multi-pass stream: identical answer, sublinear
// working memory.
func ExampleSolveInstance_stream() {
	inst := lowdimlp.Instance{
		Dim:       2,
		Objective: []float64{1, 1},
		Rows:      [][]float64{{-1, 0, -1}, {0, -1, -2}, {1, 0, 10}, {0, 1, 10}},
	}
	sol, _, err := lowdimlp.SolveInstance("lp", "stream", inst, lowdimlp.Options{R: 2, Seed: 1})
	if err != nil {
		panic(err)
	}
	value, _ := sol.Scalar("value")
	fmt.Printf("objective %v\n", value)
	// Output: objective 3
}

// Train a maximum-margin classifier on two points. An svm row is the
// point followed by its label ±1.
func ExampleSolveInstance_svm() {
	inst := lowdimlp.Instance{Dim: 2, Rows: [][]float64{{2, 0, +1}, {-2, 0, -1}}}
	sol, _, err := lowdimlp.SolveInstance("svm", "ram", inst, lowdimlp.Options{})
	if err != nil {
		panic(err)
	}
	u, _ := sol.Vector("u")
	margin, _ := sol.Scalar("margin")
	fmt.Printf("u = %v, margin %v\n", u, margin)
	// Output: u = [0.5 0], margin 2
}

// Minimum enclosing ball of a square's corners.
func ExampleSolveInstance_meb() {
	inst := lowdimlp.Instance{Dim: 2, Rows: [][]float64{{0, 0}, {0, 2}, {2, 0}, {2, 2}}}
	sol, _, err := lowdimlp.SolveInstance("meb", "ram", inst, lowdimlp.Options{})
	if err != nil {
		panic(err)
	}
	center, _ := sol.Vector("center")
	radius, _ := sol.Scalar("radius")
	fmt.Printf("center %v, radius² %.0f\n", center, radius*radius)
	// Output: center [1 1], radius² 2
}

// The smallest enclosing annulus of four co-circular points has width
// zero. Any registered kind solves on any backend with the same call.
func ExampleSolveInstance_sea() {
	inst := lowdimlp.Instance{Dim: 2, Rows: [][]float64{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}}
	sol, _, err := lowdimlp.SolveInstance("sea", "stream", inst, lowdimlp.Options{R: 2})
	if err != nil {
		panic(err)
	}
	width, _ := sol.Scalar("width")
	fmt.Printf("width %v\n", width)
	// Output: width 0
}

// One linear program in all four execution models: the RAM reference,
// the multi-pass stream, k coordinator sites and MPC machines. The
// answer is the same bit for bit; the resources each model spends are
// not.
func ExampleSolveInstance_backends() {
	// A 3-dimensional LP with 30 000 random constraints tangent to the
	// unit sphere. At r = 3 the ε-net is far smaller than the input.
	lp, _ := lowdimlp.LookupKind("lp")
	inst, err := lp.Generate("sphere", lowdimlp.GenParams{N: 30000, D: 3, Seed: 2019})
	if err != nil {
		panic(err)
	}
	opt := lowdimlp.Options{R: 3, Seed: 7, K: 8}
	for _, backend := range lowdimlp.Backends() {
		sol, stats, err := lowdimlp.SolveInstance("lp", backend, inst, opt)
		if err != nil {
			panic(err)
		}
		value, _ := sol.Scalar("value")
		fmt.Printf("%-11s objective %.9f", backend, value)
		switch {
		case stats.Stream != nil:
			fmt.Printf(", net of %d rows", stats.Stream.NetSize)
		case stats.Coordinator != nil:
			fmt.Printf(", %d sites", stats.Coordinator.K)
		case stats.MPC != nil:
			fmt.Printf(", %d machines", stats.MPC.Machines)
		}
		fmt.Println()
	}
	// Output:
	// ram         objective -2.653412398
	// stream      objective -2.653412398, net of 6215 rows
	// coordinator objective -2.653412398, 8 sites
	// mpc         objective -2.653412398, 173 machines
}

// Distributed hard-margin SVM training in the coordinator model: the
// training set lives on 16 sites (think regional data centres) and
// the exact maximum-margin separator is computed with communication
// that grows as n^{1/r}, not as n.
func ExampleSolveInstance_coordinator() {
	const d, n, sites, margin = 4, 200000, 16, 0.25
	svm, _ := lowdimlp.LookupKind("svm")
	inst, err := svm.Generate("separable", lowdimlp.GenParams{N: n, D: d, Seed: 77, Margin: margin})
	if err != nil {
		panic(err)
	}
	sol, stats, err := lowdimlp.SolveInstance("svm", "coordinator", inst, lowdimlp.Options{R: 3, Seed: 5, K: sites})
	if err != nil {
		panic(err)
	}
	u, _ := sol.Vector("u")
	got, _ := sol.Scalar("margin")
	// Every example is classified with functional margin at least 1.
	worst := math.Inf(1)
	for _, row := range inst.Rows {
		dot := 0.0
		for j, x := range row[:d] {
			dot += u[j] * x
		}
		worst = math.Min(worst, row[d]*dot)
	}
	shipAll := int64(n) * int64(d+1) * 64
	fmt.Printf("margin %.5f (planted ≥ %.2f), worst y·⟨u,x⟩ ≥ 1: %v\n", got, margin, worst >= 1-1e-9)
	fmt.Printf("%d rounds, %.0f%% of the bits that shipping every row costs\n",
		stats.Coordinator.Rounds, 100*float64(stats.Coordinator.TotalBits)/float64(shipAll))
	// Output:
	// margin 0.25008 (planted ≥ 0.25), worst y·⟨u,x⟩ ≥ 1: true
	// 9 rounds, 29% of the bits that shipping every row costs
}

// Core-vector-machine-style minimum enclosing ball in the MPC model:
// the point cloud is spread over ≈ √n machines of O~(√n) memory each,
// and the exact ball comes out in O(r) rounds. At r = 2 this small a
// cloud would fit one net and ship whole; r = 3 samples.
func ExampleSolveInstance_mpc() {
	meb, _ := lowdimlp.LookupKind("meb")
	inst, err := meb.Generate("ball", lowdimlp.GenParams{N: 30000, D: 3, Seed: 13})
	if err != nil {
		panic(err)
	}
	sol, stats, err := lowdimlp.SolveInstance("meb", "mpc", inst, lowdimlp.Options{R: 3, Seed: 3, Delta: 0.5})
	if err != nil {
		panic(err)
	}
	ref, _, err := lowdimlp.SolveInstance("meb", "ram", inst, lowdimlp.Options{})
	if err != nil {
		panic(err)
	}
	radius, _ := sol.Scalar("radius")
	want, _ := ref.Scalar("radius")
	fmt.Printf("radius %.6f, equal to the RAM reference: %v\n", radius, radius == want)
	fmt.Printf("%d machines, %d rounds\n", stats.MPC.Machines, stats.MPC.Rounds)
	// Output:
	// radius 0.999962, equal to the RAM reference: true
	// 173 machines, 26 rounds
}

// Entity matching with linear classification, the database application
// that motivated the paper's MPC algorithm (§1.1): candidate record
// pairs are scored by a few features and historical labels say which
// pairs match. A linear classifier separating matches from non-matches
// is a low-dimensional SVM over one constraint per pair, trained here
// with the pair table sharded over MPC machines.
func ExampleSolveInstance_entitymatch() {
	const features, pairs = 5, 20000
	svm, _ := lowdimlp.LookupKind("svm")
	inst, err := svm.Generate("separable", lowdimlp.GenParams{N: pairs, D: features, Seed: 2018, Margin: 0.2})
	if err != nil {
		panic(err)
	}
	sol, _, err := lowdimlp.SolveInstance("svm", "mpc", inst, lowdimlp.Options{Seed: 4, Delta: 0.5})
	if err != nil {
		panic(err)
	}
	u, _ := sol.Vector("u")
	correct := 0
	for _, row := range inst.Rows {
		score := 0.0
		for j, x := range row[:features] {
			score += u[j] * x
		}
		if (score > 0) == (row[features] > 0) {
			correct++
		}
	}
	fmt.Printf("training accuracy %d/%d\n", correct, pairs)
	// Output: training accuracy 20000/20000
}
