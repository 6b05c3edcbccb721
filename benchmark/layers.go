package main

// closedLayers turns a traced closed-loop run into per-layer metrics.
// Shares are taken over the whole workload (Σ over every traced op's
// wall), so the <kind>.basis_share values add up to the workload's
// total basis share. Counts (passes, rounds, bits…) come from the
// solver's own Stats and repeat exactly for a seed.
func closedLayers(w *closedWorkload, plain, traced []sample) map[string]float64 {
	out := map[string]float64{}
	kindOf := map[string]string{}
	for _, in := range w.insts {
		kindOf[in.ID] = in.Kind
	}

	type agg struct {
		ops                             float64
		basisMS, basisCalls, basisItems float64
		scanMS, scanRows                float64
		solveMS, exchangeMS             float64
		allocMB                         float64
		opMS                            []float64
	}
	byKind, byBackend, bySource := map[string]*agg{}, map[string]*agg{}, map[string]*agg{}
	get := func(m map[string]*agg, k string) *agg {
		if m[k] == nil {
			m[k] = &agg{}
		}
		return m[k]
	}
	totalWall := 0.0
	kernelBlocks := map[string]float64{}
	var fleet struct{ ops, exchangeMS, wallMS, exchanges, bytes float64 }
	var exchMS, dialMS, refMS, fleetMS []float64
	for _, s := range traced {
		r := s.res
		if r.Err != "" || r.Layers == nil {
			continue
		}
		l := r.Layers
		totalWall += r.MS
		for _, a := range []*agg{get(byKind, kindOf[s.req.Inst]), get(byBackend, s.req.Backend), get(bySource, s.req.Source)} {
			a.ops++
			a.basisMS += l.BasisMS
			a.basisCalls += float64(l.BasisCalls)
			a.basisItems += float64(l.BasisItems)
			a.scanMS += l.ScanMS
			a.scanRows += float64(l.ScanRows)
			a.solveMS += l.SolveMS
			a.exchangeMS += l.ExchangeMS
			a.allocMB += l.AllocMB
		}
		for class, n := range l.KernelBlock {
			kernelBlocks[class] += float64(n)
		}
		if s.req.Source == "fleet" {
			fleet.ops++
			fleet.exchangeMS += l.ExchangeMS
			fleet.wallMS += r.MS
			fleet.exchanges += float64(l.Exchanges)
			fleet.bytes += float64(l.Bytes)
			exchMS = append(exchMS, l.EachExchMS...)
			dialMS = append(dialMS, l.DialMS)
		}
	}
	// Op-time medians per source and backend come from the plain twin
	// of each op: they are what the end-to-end numbers are made of.
	for _, s := range plain {
		if s.res.Err != "" {
			continue
		}
		get(bySource, s.req.Source).opMS = append(get(bySource, s.req.Source).opMS, s.res.MS)
		get(byBackend, s.req.Backend).opMS = append(get(byBackend, s.req.Backend).opMS, s.res.MS)
		if s.req.Source == "fleet" {
			fleetMS = append(fleetMS, s.res.MS)
			refMS = append(refMS, s.res.RefMS)
		}
	}
	nTraced := float64(len(traced))

	for _, k := range kindNames {
		a := byKind[k]
		if a == nil {
			continue
		}
		out[k+".basis_ms_per_op"] = ratio(a.basisMS, a.ops)
		out[k+".basis_calls_per_op"] = ratio(a.basisCalls, a.ops)
		out[k+".basis_items_per_op"] = ratio(a.basisItems, a.ops)
		out[k+".basis_share"] = ratio(a.basisMS, totalWall)
		out[k+".scan_ns_per_row"] = ratio(a.scanMS*1e6, a.scanRows)
		out[k+".scan_rows_per_op"] = ratio(a.scanRows, a.ops)
		out[k+".scan_share"] = ratio(a.scanMS, totalWall)
	}
	for _, c := range []string{"d3", "d4", "generic"} {
		out["kernel.blocks_per_op."+c] = ratio(kernelBlocks[c], nTraced)
	}
	out["kernel.rowloop_blocks_per_op"] = ratio(kernelBlocks["rowloop"], nTraced)

	// Driver self time: the backend call minus what it spent in the
	// domain (and on the wire); per-backend counts from Stats.
	self := func(a *agg) float64 {
		if a == nil {
			return 0
		}
		return ratio(a.solveMS-a.basisMS-a.scanMS-a.exchangeMS, a.ops)
	}
	var st struct{ ops, passes, items, iters, succ, net, space float64 }
	var co struct{ ops, rounds, bits, msgs float64 }
	var mp struct{ ops, rounds, load float64 }
	for _, s := range traced {
		if s.res.Err != "" {
			continue
		}
		stats := statsOf(s.res)
		switch {
		case stats.Stream != nil:
			st.ops++
			st.passes += float64(stats.Stream.Passes)
			st.items += float64(stats.Stream.ItemsScanned)
			st.iters += float64(stats.Stream.Successes + stats.Stream.Failures)
			st.succ += float64(stats.Stream.Successes)
			st.net += float64(stats.Stream.NetSize)
			st.space += float64(stats.Stream.PeakSpaceBits)
		case stats.Coordinator != nil:
			co.ops++
			co.rounds += float64(stats.Coordinator.Rounds)
			co.bits += float64(stats.Coordinator.TotalBits)
			co.msgs += float64(stats.Coordinator.Messages)
		case stats.MPC != nil:
			mp.ops++
			mp.rounds += float64(stats.MPC.Rounds)
			mp.load += float64(stats.MPC.MaxLoadBits)
		}
	}
	if fleet.ops == 0 { // fleet ops are coordinator ops over the wire; their self time is reported under httptransport
		out["stream.self_ms_per_op"] = self(byBackend["stream"])
		out["coordinator.self_ms_per_op"] = self(byBackend["coordinator"])
		out["mpc.self_ms_per_op"] = self(byBackend["mpc"])
	}
	out["stream.passes_per_op"] = ratio(st.passes, st.ops)
	out["stream.items_scanned_per_op"] = ratio(st.items, st.ops)
	// Useful ÷ attempted iterations: a failed iteration's pass bought
	// nothing but a resample.
	out["stream.iter_success_ratio"] = ratio(st.succ, st.iters)
	out["stream.net_size"] = ratio(st.net, st.ops)
	out["stream.peak_space_bits"] = ratio(st.space, st.ops)
	out["coordinator.rounds_per_op"] = ratio(co.rounds, co.ops)
	out["coordinator.bits_per_op"] = ratio(co.bits, co.ops)
	out["coordinator.messages_per_op"] = ratio(co.msgs, co.ops)
	out["mpc.rounds_per_op"] = ratio(mp.rounds, mp.ops)
	out["mpc.max_load_bits"] = ratio(mp.load, mp.ops)

	for _, s := range sourceNames {
		if a := bySource[s]; a != nil {
			out["source."+s+".op_p50_ms"] = median(a.opMS)
			out["source."+s+".alloc_mb_per_op"] = ratio(a.allocMB, a.ops)
		}
	}
	for _, b := range backendNames {
		if a := byBackend[b]; a != nil && fleet.ops == 0 {
			out["backend."+b+".op_p50_ms"] = median(a.opMS)
		}
	}
	if s, c := bySource["slice"], bySource["columnar"]; s != nil && c != nil {
		// Computed, not measured: what the typed-slice entry point pays
		// on top of the columnar one (row decode + per-item dispatch).
		out["engine.slice_decode_ms"] = median(s.opMS) - median(c.opMS)
	}

	if fleet.ops > 0 {
		out["httptransport.exchange_ms_p50"] = median(exchMS)
		out["httptransport.exchange_ms_p90"], _ = percentile(exchMS, 90)
		out["httptransport.exchanges_per_op"] = ratio(fleet.exchanges, fleet.ops)
		out["httptransport.bytes_per_op"] = ratio(fleet.bytes, fleet.ops)
		out["httptransport.wire_share"] = ratio(fleet.exchangeMS, fleet.wallMS)
		out["httptransport.dial_ms"] = median(dialMS)
		// Computed: networked op minus the in-process coordinator over
		// the same manifest and seed.
		out["fleet.overhead_ms_per_op"] = mean(fleetMS) - mean(refMS)
	}

	// Tracing overhead: the same ops, same seeds, with and without the
	// wrappers.
	var p, t []float64
	for i := range traced {
		if traced[i].res.Err == "" && plain[i].res.Err == "" {
			p = append(p, plain[i].res.MS)
			t = append(t, traced[i].res.MS)
		}
	}
	if len(p) > 0 {
		out["trace.overhead_frac"] = ratio(median(t), median(p)) - 1
	}
	return out
}
