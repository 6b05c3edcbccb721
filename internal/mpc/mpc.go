// Package mpc implements the massively-parallel-computation (MPC)
// model and the MPC version of Algorithm 1 (Theorem 3 of
// Assadi–Karpov–Zhang, PODS 2019).
//
// # Model
//
// k machines each hold O(n^δ) constraints (so k ≈ n^{1-δ}); computation
// proceeds in synchronous rounds in which any machine may message any
// other. Resources: rounds, and the load — the maximum number of bits
// any machine sends or receives in any round. A designated machine
// (machine 0) plays the coordinator, but — as §3.4 explains — it cannot
// talk to all n^{1-δ} machines directly without blowing up its load, so
// control traffic flows through an n^δ-ary tree over the machines (the
// Goodrich–Sitchinava–Zhang simulation), taking O(1/δ) rounds per
// broadcast or aggregation.
//
// # Protocol (one iteration of Algorithm 1)
//
//  1. broadcast the pending basis down the tree           — O(1/δ) rounds
//  2. aggregate (w_i(S), w_i(V), violator count) up the
//     tree, each node retaining its children's subtotals  — O(1/δ) rounds
//  3. root decides success/termination; the multinomial
//     sample allocation flows down the tree, split at each
//     node by the retained subtree weights                — O(1/δ) rounds
//  4. machines with a positive allocation sample locally
//     by current weight and send the items directly to
//     the root                                            — 1 round
//
// A machine holds its O(n^δ) constraints anyway, so it keeps one weight
// exponent next to each (lptype.SiteWeights) instead of recomputing the
// weights from a list of successful bases: step 2 tests only the
// pending basis, a successful step 3 bumps its violators, step 4 draws
// from a table rebuilt only after such a bump. §3.2's recompute-on-the-
// fly economy is the stream's, which cannot afford per-constraint state.
//
// With r = Θ(1/δ) iterations of O(1/δ) rounds each, the total is the
// O(ν/δ²) rounds of Theorem 3, at load O~(λ·ν²·n^δ)·bit(S).
//
// This is the coordinator protocol with its control traffic routed
// through the tree, and the loop is core.Run's: steps 1–2 are the tree
// substrate's Test, steps 3–4 its Sample, so the parameters, the success
// rule, the Monte-Carlo exit and the iteration budget are those of every
// other backend.
package mpc

import (
	"fmt"
	"math"
	"math/rand/v2"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sampling"
)

// Options configure the MPC solver.
type Options struct {
	Core core.Options
	// Delta is the load exponent δ ∈ (0, 1): machines hold Θ(n^δ)
	// items. Zero means 0.5.
	Delta float64
	// Machines overrides the machine count (0 = derive from Delta).
	Machines int
}

// Stats reports an MPC run: Algorithm 1's counts and the resources
// Theorem 3 bounds, rounds and load.
type Stats struct {
	core.RunStats
	Machines    int
	Delta       float64
	FanOut      int
	Rounds      int
	MaxLoadBits int64 // max bits sent or received by any machine in any round
	TotalBits   int64
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d machines=%d δ=%.2f rounds=%d load=%dbits iters=%d",
		s.N, s.Machines, s.Delta, s.Rounds, s.MaxLoadBits, s.Iterations)
}

// net simulates the synchronous all-to-all network with per-round
// per-machine load accounting.
type net struct {
	k          int
	sent, recv []int64
	maxLoad    int64
	totalBits  int64
	rounds     int
}

func newNet(k int) *net {
	return &net{k: k, sent: make([]int64, k), recv: make([]int64, k)}
}

// send charges one message of the given bits from machine a to b in
// the current round.
func (nw *net) send(from, to, bits int) {
	nw.sent[from] += int64(bits)
	nw.recv[to] += int64(bits)
	nw.totalBits += int64(bits)
}

// nextRound closes the current round, folding its loads into maxLoad.
func (nw *net) nextRound() {
	nw.rounds++
	for i := 0; i < nw.k; i++ {
		if nw.sent[i] > nw.maxLoad {
			nw.maxLoad = nw.sent[i]
		}
		if nw.recv[i] > nw.maxLoad {
			nw.maxLoad = nw.recv[i]
		}
		nw.sent[i], nw.recv[i] = 0, 0
	}
}

// machine is one MPC participant.
type machine[C, B any] struct {
	id   int
	data *lptype.SiteWeights[C, B]
	rng  *rand.Rand
	// children are the node's tree children, ws the scratch its
	// allocation split is drawn over ({self} ∪ children).
	children []int
	ws       []float64
	// childTot/childViol retain the per-child subtree weight reports of
	// the latest aggregation (used to split the sample allocation).
	childTot  []float64
	childViol []float64
	selfTot   float64
	selfViol  float64
	cnt       int // violator count, accumulated over the subtree
}

// subTot returns the subtree total weight (valid once all children of
// the node have reported, i.e. after the deeper levels aggregated).
func (m *machine[C, B]) subTot() float64 {
	s := m.selfTot
	for _, v := range m.childTot {
		s += v
	}
	return s
}

// subViol returns the subtree violator weight.
func (m *machine[C, B]) subViol() float64 {
	s := m.selfViol
	for _, v := range m.childViol {
		s += v
	}
	return s
}

// subCnt returns the subtree violator count.
func (m *machine[C, B]) subCnt() int { return m.cnt }

// SolveSource runs the MPC version of Algorithm 1 (Theorem 3) over any
// columnar source; codecs meter the communication. Once the machine
// count k is derived from n and δ the source is dealt round-robin
// (lptype.ShardSiteWeights: each machine scans its shard file directly
// when the source has exactly k shards — the out-of-core MPC path —
// and a view of the materialized source otherwise). Machine j holds
// rows j, j+k, j+2k, … in order in every case, so the answer is
// bit-identical across layouts.
func SolveSource[C, B any](
	ra lptype.RowAccess[C, B], src dataset.Source,
	ccodec comm.Codec[C], bcodec comm.Codec[B],
	opt Options,
) (B, Stats, error) {
	var zero B
	dom := ra.Domain()
	n := src.Rows()
	delta := opt.Delta
	if delta <= 0 || delta >= 1 {
		delta = 0.5
	}
	stats := Stats{Delta: delta}
	if n == 0 {
		b, err := dom.Solve(nil)
		return b, stats, err
	}

	loadCap := int(math.Ceil(math.Pow(float64(n), delta)))
	k := opt.Machines
	if k <= 0 {
		k = (n + loadCap - 1) / loadCap
	}
	if k < 1 {
		k = 1
	}
	fan := loadCap
	if fan < 2 {
		fan = 2
	}
	stats.Machines = k
	stats.FanOut = fan

	// The paper sets r = Θ(1/δ); Core.R overrides it.
	co := opt.Core
	if co.R <= 0 {
		co.R = int(math.Ceil(1 / delta))
	}
	p := core.NewParams(n, dom.CombinatorialDim(), dom.VCDim(), co)

	stores, err := lptype.ShardSiteWeights(ra, src, k)
	if err != nil {
		return zero, stats, err
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()
	t := &tree[C, B]{
		machines: make([]*machine[C, B], k), nw: newNet(k), fan: fan, depth: treeDepth(k, fan),
		ccodec: ccodec, bcodec: bcodec, mult: p.Mult,
		alloc: make([]int, k), subAlloc: make([]int, k),
	}
	for i := range t.machines {
		ch := children(i, k, fan)
		t.machines[i] = &machine[C, B]{
			id: i, data: stores[i], rng: numeric.NewRand(opt.Core.Seed^0x3bc, uint64(i)+1),
			children: ch, ws: make([]float64, 1+len(ch)),
		}
		stores[i].Reset(p.Mult)
	}
	b, rs, err := core.Run(p, t, dom.Solve)
	stats.RunStats = rs
	stats.Rounds, stats.MaxLoadBits, stats.TotalBits = t.nw.rounds, t.nw.maxLoad, t.nw.totalBits
	return b, stats, err
}

// tree is the MPC substrate of Algorithm 1: the machines, the f-ary
// tree the control traffic flows through, and the load meter.
type tree[C, B any] struct {
	machines   []*machine[C, B]
	nw         *net
	fan, depth int
	ccodec     comm.Codec[C]
	bcodec     comm.Codec[B]
	mult       float64
	alloc      []int // per-iteration scratch: local sample counts
	subAlloc   []int // and subtree sample counts
}

// Test broadcasts the pending basis down the tree, tests it on every
// machine, and aggregates the weight reports up the tree.
func (t *tree[C, B]) Test(pending *B) (wS, wV float64, violators int, err error) {
	k, fan, nw := len(t.machines), t.fan, t.nw
	// ---- (1) broadcast pending basis down the tree. ----
	if pending != nil {
		bits := t.bcodec.Bits(*pending)
		for lvl := 0; lvl < t.depth; lvl++ {
			forEachAtLevel(k, fan, lvl, func(parent int) {
				for _, ch := range t.machines[parent].children {
					nw.send(parent, ch, bits)
				}
			})
			nw.nextRound()
		}
	}
	// ---- (2) local scans + aggregation up the tree. ----
	for _, mm := range t.machines {
		wTot, wViol, cnt := mm.data.Test(pending)
		mm.selfTot, mm.selfViol = wTot, wViol
		mm.childTot = mm.childTot[:0]
		mm.childViol = mm.childViol[:0]
		// Violator counts ride along with the weights; fold the
		// count into selfViol's message (3 numbers total).
		mm.cnt = cnt
	}
	// subtree accumulation, deepest level first.
	for lvl := t.depth; lvl >= 1; lvl-- {
		forEachAtLevel(k, fan, lvl, func(node int) {
			mm := t.machines[node]
			p := parent(node, fan)
			pm := t.machines[p]
			pm.childTot = append(pm.childTot, mm.subTot())
			pm.childViol = append(pm.childViol, mm.subViol())
			pm.cnt += mm.subCnt()
			nw.send(node, p, 3*64)
		})
		nw.nextRound()
	}
	root := t.machines[0]
	return root.subTot(), root.subViol(), root.subCnt(), nil
}

// Sample sends the success flag and the sample allocation down the
// tree, and the machines ship their local draws to the root.
func (t *tree[C, B]) Sample(success bool, sample []C) error {
	k, fan, nw := len(t.machines), t.fan, t.nw
	// ---- (3) allocation down the tree. ----
	// Each node receives (flag, count); it splits the count among
	// itself and its child subtrees by updated subtree weights.
	clear(t.alloc)
	clear(t.subAlloc)
	t.subAlloc[0] = len(sample)
	for lvl := 0; lvl <= t.depth; lvl++ {
		forEachAtLevel(k, fan, lvl, func(node int) {
			mm := t.machines[node]
			if success {
				mm.data.Commit()
			}
			cnt := t.subAlloc[node]
			ch, ws := mm.children, mm.ws
			// Split cnt over {self} ∪ children by updated weights.
			ws[0] = upd(mm.selfTot, mm.selfViol, success, t.mult)
			for j := range ch {
				ws[1+j] = upd(mm.childTot[j], mm.childViol[j], success, t.mult)
			}
			if cnt > 0 && sumPos(ws) {
				split := sampling.Multinomial(cnt, ws, mm.rng)
				t.alloc[node] = split[0]
				for j, c := range ch {
					t.subAlloc[c] = split[1+j]
				}
			}
			for _, c := range ch {
				nw.send(node, c, 64+1) // count + flag
			}
		})
		nw.nextRound()
	}

	// ---- (4) local sampling, items direct to root. ----
	j := 0
	for _, mm := range t.machines {
		if t.alloc[mm.id] == 0 {
			continue
		}
		bits := 0
		for range t.alloc[mm.id] {
			c := mm.data.Item(mm.data.Draw(mm.rng))
			sample[j] = c
			j++
			bits += t.ccodec.Bits(c)
		}
		if mm.id != 0 {
			nw.send(mm.id, 0, bits)
		}
	}
	nw.nextRound()
	return nil
}

// All ships every machine's constraints to the root in one round (the
// small-input path, n ≤ 2m+1).
func (t *tree[C, B]) All() ([]C, error) {
	n := 0
	for _, mm := range t.machines {
		n += mm.data.Size()
	}
	all := make([]C, 0, n)
	for _, mm := range t.machines {
		bits := 0
		for i, sz := 0, mm.data.Size(); i < sz; i++ {
			c := mm.data.Item(i)
			bits += t.ccodec.Bits(c)
			all = append(all, c)
		}
		if mm.id != 0 && bits > 0 {
			t.nw.send(mm.id, 0, bits)
		}
	}
	t.nw.nextRound()
	return all, nil
}

// upd is the post-success-bump subtree weight.
func upd(tot, viol float64, success bool, mult float64) float64 {
	if success {
		return tot + (mult-1)*viol
	}
	return tot
}

func sumPos(ws []float64) bool {
	var s float64
	for _, w := range ws {
		s += w
	}
	return s > 0
}

// --- f-ary tree topology over machine ids 0..k-1 ---------------------

func parent(i, fan int) int { return (i - 1) / fan }

func children(i, k, fan int) []int {
	lo := fan*i + 1
	if lo >= k {
		return nil
	}
	hi := min(lo+fan, k)
	out := make([]int, 0, hi-lo)
	for c := lo; c < hi; c++ {
		out = append(out, c)
	}
	return out
}

// level returns the depth of node i in the f-ary heap layout.
func level(i, fan int) int {
	l := 0
	for i > 0 {
		i = parent(i, fan)
		l++
	}
	return l
}

// treeDepth returns the maximum level over 0..k-1.
func treeDepth(k, fan int) int {
	return level(k-1, fan)
}

// forEachAtLevel applies fn to every node at the given level.
func forEachAtLevel(k, fan, lvl int, fn func(node int)) {
	// Level boundaries in heap layout: level l spans
	// [(f^l - 1)/(f-1), (f^{l+1} - 1)/(f-1)).
	lo, width := 0, 1
	for l := 0; l < lvl; l++ {
		lo += width
		width *= fan
	}
	hi := lo + width
	if hi > k {
		hi = k
	}
	for i := lo; i < hi; i++ {
		fn(i)
	}
}
