package main

import (
	"bufio"
	"net/http"
	"strconv"
	"strings"
)

// extraLayers adds what the ops alone cannot give a traced run: the
// standalone probes of the layers this workload is about, and the
// computed sampling share.
func (w *closedWorkload) extraLayers(st *closedState, res *workloadResult, traced []sample) error {
	out := res.Layers
	var lpInst *labInst
	for _, in := range w.insts {
		if in.Kind == "lp" && in.D == 3 {
			li, err := generate(in)
			if err != nil {
				return err
			}
			lpInst = li
		}
	}
	switch w.def.Name {
	case "scan-sources":
		// The set-up already wrote this instance; reuse only names the files.
		if _, err := lpInst.writeFiles(st.dir, true); err != nil {
			return err
		}
		if err := datasetProbes(out, lpInst, st.dir); err != nil {
			return err
		}
		if err := lptypeProbes(out, lpInst); err != nil {
			return err
		}
		samplingProbes(out, lpInst.spec.N)
		// Computed, not measured: the streaming driver offers every
		// scanned row to two reservoirs, so 2·items·offer_ns of a stream
		// op's wall is sampling. offer_ns is probed at the ops' net size.
		var items, wallMS, net float64
		for _, s := range traced {
			if ss := statsOf(s.res).Stream; s.res.Err == "" && ss != nil {
				items += float64(ss.ItemsScanned)
				wallMS += s.res.MS
				net = float64(ss.NetSize)
			}
		}
		if net > 0 {
			out["sampling.est_share"] = ratio(2*items*offerNS(int(net), lpInst.spec.N)/1e6, wallMS)
		}
	case "fleet-net":
		commProbes(out, lpInst)
	}
	return nil
}

// scrape reads a Prometheus text page into name{labels} → value.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] += v
		}
	}
	return out, sc.Err()
}

// scrapeSum adds up the metric pages of several servers.
func scrapeSum(urls []string) (map[string]float64, error) {
	total := map[string]float64{}
	for _, u := range urls {
		m, err := scrape(u)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}
