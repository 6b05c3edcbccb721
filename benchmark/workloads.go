package main

// Sizes. The issue that defined lpmark asked for n ≈ 400 k and ≥ 30 s
// of timed ops per workload; the acceptance driver's budget (92 runs
// in 3420 s, each with three set-ups) leaves ≈ 20 s, so the instances
// are the largest that still give a few hundred timed ops per run —
// the op count, not n, is what makes the medians repeat across seeds.
// README "How sizes and the rate were chosen" has the measurements.

// pick returns full or quick.
func pick(cfg runConfig, full, quick int) int {
	if cfg.Quick {
		return quick
	}
	return full
}

// scanSources: lp(sphere) + meb(gaussian) at d=3, big n and r=3 (small
// nets, many passes), on every backend that scans × every way rows can
// reach a solver. Domain.Solve stays under a fifth of the op; the six
// sources are the parallel data paths ROADMAP wants collapsed, so a
// path that regresses shows in its own source.* row.
func scanSources(cfg runConfig) *closedWorkload {
	def, _ := workloadByName("scan-sources")
	gen := newRng(cfg.Seed, def.Name+"/gen")
	n := pick(cfg, 100_000, 12_000)
	w := &closedWorkload{def: def, insts: []instSpec{
		{ID: "lp", Kind: "lp", Family: "sphere", N: n, D: 3, Seed: solverSeed(gen), Shards: 4},
		{ID: "meb", Kind: "meb", Family: "gaussian", N: n, D: 3, Seed: solverSeed(gen), Shards: 4},
	}}
	w.cells = func(map[string][]string) []opRequest {
		var cells []opRequest
		for _, in := range w.insts {
			for _, b := range []string{"stream", "coordinator", "mpc"} {
				for _, s := range sourceNames {
					cells = append(cells, opRequest{Inst: in.ID, Backend: b, Source: s, R: 3, K: 4})
				}
			}
		}
		return cells
	}
	return w
}

// basisHeavy: small n, higher d and the lifted LP of sea, where the
// ε-net is the whole input or close to it: the op is Domain.Solve
// (lp/seidel, sea, svm's Wolfe) and scans are noise. svm runs on the
// ram backend only — one Wolfe solve over all rows. Its stream and
// coordinator solves are not basis-bound (scans are > 60 % of them)
// and about one in 600 stalls for seconds in svm.minNormPoint even at
// n = 8 000 (README, known failing inputs), which a mean-based metric
// of a 20 s run cannot absorb.
func basisHeavy(cfg runConfig) *closedWorkload {
	def, _ := workloadByName("basis-heavy")
	gen := newRng(cfg.Seed, def.Name+"/gen")
	// Three warm-ups per cell: these solves' times are heavy-tailed, and
	// 13 of them alone made setup_s spread 40 % across seeds.
	w := &closedWorkload{def: def, warmRounds: 3, insts: []instSpec{
		{ID: "sea-1k", Kind: "sea", Family: "ring", N: pick(cfg, 1000, 300), D: 3, Seed: solverSeed(gen)},
		{ID: "sea-2k", Kind: "sea", Family: "ring", N: pick(cfg, 2000, 500), D: 3, Seed: solverSeed(gen)},
		{ID: "lp5-3k", Kind: "lp", Family: "sphere", N: pick(cfg, 3000, 600), D: 5, Seed: solverSeed(gen)},
		{ID: "lp5-6k", Kind: "lp", Family: "sphere", N: pick(cfg, 6000, 900), D: 5, Seed: solverSeed(gen)},
		{ID: "svm-8k", Kind: "svm", Family: "separable", N: pick(cfg, 8000, 2000), D: 3, Seed: solverSeed(gen)},
	}}
	w.cells = func(map[string][]string) []opRequest {
		var cells []opRequest
		for _, in := range w.insts {
			for _, b := range []string{"ram", "stream", "coordinator"} {
				if in.Kind == "svm" && b != "ram" {
					continue
				}
				cells = append(cells, opRequest{Inst: in.ID, Backend: b, Source: "columnar", R: 2, K: 4})
			}
		}
		return cells
	}
	return w
}

// fleetNet: two 3-worker fleets of real lpserved processes (lp and
// meb) driven by lowdimlp.SolveFleet at r ∈ {2,3}. Same protocol as
// scan-sources' coordinator cells; what differs is comm framing, HTTP
// exchanges and the worker's step handling.
func fleetNet(cfg runConfig) *closedWorkload {
	def, _ := workloadByName("fleet-net")
	gen := newRng(cfg.Seed, def.Name+"/gen")
	n := pick(cfg, 60_000, 9_000)
	// Four cells only, so each is warmed six times: a set-up made of
	// four random solves would vary by half from seed to seed.
	w := &closedWorkload{def: def, fleet: true, warmRounds: 6, insts: []instSpec{
		{ID: "lp", Kind: "lp", Family: "sphere", N: n, D: 3, Seed: solverSeed(gen), Shards: 3},
		{ID: "meb", Kind: "meb", Family: "gaussian", N: n, D: 3, Seed: solverSeed(gen), Shards: 3},
	}}
	w.cells = func(urls map[string][]string) []opRequest {
		var cells []opRequest
		for _, in := range w.insts {
			for _, r := range []int{2, 3} {
				cells = append(cells, opRequest{Inst: in.ID, Backend: "coordinator", Source: "fleet", R: r, Workers: urls[in.ID]})
			}
		}
		return cells
	}
	return w
}
