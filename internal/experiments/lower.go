package experiments

import (
	"fmt"
	"io"
	"math"

	"lowdimlp/internal/coordinator"
	"lowdimlp/internal/core"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/models"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/tci"
)

// runE8 — the lower-bound family: communication on hard TCI instances
// (Theorems 7, 9, 10 and the near-matching upper bounds).
func runE8(w io.Writer, cfg Config) error {
	type cell struct{ N, R int }
	sweep := []cell{{8, 1}, {16, 1}, {32, 1}, {8, 2}, {16, 2}, {8, 3}}
	if cfg.Quick {
		sweep = []cell{{8, 1}, {8, 2}}
	}
	t := newTable(w, "N=n^{1/r}", "r", "n", "protocol bits", "Ω(N/r²) ref", "coord-LP bits", "coord rounds", "answers ok?")
	for _, c := range sweep {
		rng := numeric.NewRand(cfg.Seed+uint64(c.N*10+c.R), 0xe8)
		ins, want, err := tci.Hard(tci.HardOptions{N: c.N, R: c.R, Rng: rng})
		if err != nil {
			return err
		}
		n := ins.N()

		// (a) The purpose-built r-round protocol (upper bound).
		pres, err := tci.RunProtocol(ins, c.R)
		if err != nil {
			return err
		}

		// (b) Our general coordinator LP algorithm on the derived 2-D
		// LP with k = 2: Alice's lines on site 1, Bob's on site 2 —
		// the communication-model split of §5.
		prob, cons := ins.ToHalfspaces()
		half := len(cons) / 2
		dom := lp.NewDomain(prob, cfg.Seed+5)
		ra, rows, err := columnar(models.LP, 2, dom, cons)
		if err != nil {
			return err
		}
		sites := []*lptype.SiteWeights[lp.Halfspace, lp.Basis]{
			lptype.NewSiteWeights(ra, rows.View().Slice(0, half)),
			lptype.NewSiteWeights(ra, rows.View().Slice(half, len(cons))),
		}
		hc := models.LP.ItemCodec(2)
		bc := lp.BasisCodec{Dim: 2}
		cb, cst, err := coordinator.Solve(ra.Domain(), sites, hc, bc, coordinator.Options{
			Core: core.Options{R: c.R, Seed: cfg.Seed},
		})
		if err != nil {
			return err
		}
		coordIdx := int(math.Floor(cb.Sol.X[0]))
		ok := pres.Answer == want && coordIdx == want
		t.row(c.N, c.R, n, pres.Bits, fmt.Sprintf("%.0f", float64(c.N)/float64(c.R*c.R)),
			cst.TotalBits, cst.Rounds, pass(ok))
	}
	t.flush()
	fmt.Fprintln(w, "\nshape: at fixed r, both measured protocols scale polynomially in N = n^{1/r},")
	fmt.Fprintln(w, "consistent with the Ω(n^{1/2r}/r²) bound; increasing r shrinks bits at fixed n.")
	return nil
}

// runF1 — TCI ↔ 2-D LP reduction correctness across families (Fig. 1b).
func runF1(w io.Writer, cfg Config) error {
	trials := 50
	if cfg.Quick {
		trials = 10
	}
	t := newTable(w, "family", "trials", "exact-LP matches", "float-LP matches")
	families := []struct {
		name string
		gen  func(trial int) (*tci.Instance, int, error)
	}{
		{"base (Lemma 5.6)", func(trial int) (*tci.Instance, int, error) {
			rng := numeric.NewRand(cfg.Seed+uint64(trial), 0xf1a)
			l := 4 + rng.IntN(24)
			bits := make([]byte, l)
			for i := range bits {
				bits[i] = byte(rng.IntN(2))
			}
			ins, err := tci.BaseInstance(bits, 1+rng.IntN(l))
			if err != nil {
				return nil, 0, err
			}
			ans, err := ins.Answer()
			return ins, ans, err
		}},
		{"hard r=2", func(trial int) (*tci.Instance, int, error) {
			rng := numeric.NewRand(cfg.Seed+uint64(trial), 0xf1b)
			return tci.Hard(tci.HardOptions{N: 5, R: 2, Rng: rng})
		}},
		{"hard r=3", func(trial int) (*tci.Instance, int, error) {
			rng := numeric.NewRand(cfg.Seed+uint64(trial), 0xf1c)
			return tci.Hard(tci.HardOptions{N: 4, R: 3, Rng: rng})
		}},
	}
	for _, fam := range families {
		exactOK, floatOK := 0, 0
		for trial := 0; trial < trials; trial++ {
			ins, want, err := fam.gen(trial)
			if err != nil {
				return err
			}
			rng := numeric.NewRand(cfg.Seed+uint64(trial), 0xf1d)
			got, err := ins.SolveViaLP(rng)
			if err == nil && got == want {
				exactOK++
			}
			prob, cons := ins.ToHalfspaces()
			sol, err := lp.Seidel(prob, cons, rng)
			if err == nil && int(math.Floor(sol.X[0])) == want {
				floatOK++
			}
		}
		t.row(fam.name, trials, fmt.Sprintf("%d/%d", exactOK, trials), fmt.Sprintf("%d/%d", floatOK, trials))
	}
	t.flush()
	return nil
}

// runF2 — hard-instance structure (Fig. 2, Props 5.7–5.10 analogues).
func runF2(w io.Writer, cfg Config) error {
	trials := 30
	if cfg.Quick {
		trials = 8
	}
	t := newTable(w, "N", "r", "n", "valid", "answer preserved", "avg bits/number", "O(log n) ref")
	for _, c := range []struct{ N, R int }{{6, 1}, {6, 2}, {6, 3}, {12, 2}} {
		valid, preserved := 0, 0
		var bitsSum float64
		var n int
		for trial := 0; trial < trials; trial++ {
			rng := numeric.NewRand(cfg.Seed+uint64(trial), uint64(0xf2<<8+c.N+c.R))
			ins, want, err := tci.Hard(tci.HardOptions{N: c.N, R: c.R, Rng: rng})
			if err != nil {
				return err
			}
			n = ins.N()
			if ins.Validate() == nil {
				valid++
			}
			if got, err := ins.Answer(); err == nil && got == want {
				preserved++
			}
			bitsSum += float64(ins.BitLen()) / float64(2*n)
		}
		t.row(c.N, c.R, n, fmt.Sprintf("%d/%d", valid, trials), fmt.Sprintf("%d/%d", preserved, trials),
			fmt.Sprintf("%.1f", bitsSum/float64(trials)),
			fmt.Sprintf("%.1f", 2*math.Log2(float64(n))+16))
	}
	t.flush()
	fmt.Fprintln(w, "\n(validity = monotone + convex + unique crossing; answer preserved = the nested")
	fmt.Fprintln(w, "special block's answer survives embedding — the Prop 5.8/5.10 analogue.)")
	// Also show the Aug-Index forward reduction once.
	bits := []byte{1, 0, 1, 1, 0}
	got, err := tci.OneRoundLowerBoundWitness(bits, 4)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Lemma 5.6 witness: decoding bit 4 of %v from the TCI answer → %d (want 1)\n", bits, got)
	return nil
}
