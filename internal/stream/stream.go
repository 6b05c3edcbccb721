// Package stream implements the multi-pass streaming model and the
// streaming version of Algorithm 1 (Theorem 1 of Assadi–Karpov–Zhang,
// PODS 2019).
//
// # Model
//
// A single machine makes linear scans over the constraint sequence.
// Resources: the number of passes and the peak working memory. The
// substrate counts both (memory in bits, via caller-supplied per-item
// encodings) so experiments can reproduce the paper's
// O(d·r) passes / O~(d³·n^{1/r}) space claims.
//
// # Weights on the fly (§3.2)
//
// The streaming algorithm cannot store per-constraint weights. As in
// the paper, it stores the bases of all successful iterations; the
// weight of constraint c is then (n^{1/r})^{a(c)} with a(c) = number of
// stored bases that c violates, recomputed on the fly during each scan.
//
// # One pass per iteration
//
// A naive implementation spends two passes per iteration (one to
// sample the net, one to test violators of the new basis). Following
// the paper's "one pass per iteration" accounting, the two are fused:
// the pass that tests the pending basis B_t under the current weights w
// also draws the next net, whichever way the iteration turns out, so a
// non-direct solve spends exactly Iterations+1 passes (pinned by the
// package tests).
//
// # Sampling with known totals
//
// The total weight of a pass is known before it starts — n while no
// basis is stored, afterwards a sum the previous pass formed over the
// same rows in the same order — so the m i.i.d. draws ∝ w are read off
// m sorted uniform points on [0, total), generated one at a time: a
// row that holds no point costs one compare (sampling.KnownTotal). If
// the iteration fails, the weights stand and that draw is the next
// net. If it succeeds, the violators of B_t gain a factor n^{1/r}:
// the new weights are w + (n^{1/r}−1)·w·[violates B_t], a mixture of
// "all rows ∝ w" and "violators ∝ w". Only the violators — a few
// hundred rows of a pass — are offered to a weighted reservoir
// (sampling.RowReservoir), and each net slot independently keeps its
// draw with probability Σw ÷ Σ(new weights) and takes the reservoir's
// slot otherwise.
//
// The prediction is exact when every pass yields the same rows in the
// same order. Over a stream that does not repeat itself the sampler
// still hands back m rows it was offered (points beyond the real total
// go to the pass's last row): a worse net, hence more passes, never a
// wrong answer — a solve ends only on a pass without violators.
//
// # One driver
//
// SolveDataset runs core.Run, Algorithm 1's one loop, over this
// package's substrate: Test is one pass over flat wire rows, fed whole
// cursor batches so the violation tests run through the domains' block
// kernels, and Sample settles the net that pass drew. The success rule,
// the Monte-Carlo abort and the iteration budget (at most MaxIters nets
// solved, each tested) are core.Run's. SolveDataset is the package's
// one entry and dataset.Source its one input type: any source (a
// columnar store, a dataset file, a sharded manifest) is a stream. The
// tests keep a typed per-item twin of the driver, over a []C, as their
// oracle (ref_test.go).
package stream

import (
	"errors"
	"fmt"

	"lowdimlp/internal/core"
)

// Options configure the streaming solver.
type Options struct {
	Core core.Options // R, Seed, NetConst, TheoryNet, MonteCarlo
	// BitsPerItem and BitsPerBasis drive the space accounting (e.g.
	// from the lp codecs). Zero disables bit accounting.
	BitsPerItem  int
	BitsPerBasis int
}

// Stats reports a streaming run: Algorithm 1's counts and the
// resources Theorem 1 bounds, passes and space.
type Stats struct {
	core.RunStats
	Passes        int
	ItemsScanned  int64
	StoredBases   int
	PeakSpaceBits int64 // 0 unless bit accounting enabled
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d r=%d passes=%d m=%d bases=%d space=%dbits iters=%d",
		s.N, s.R, s.Passes, s.NetSize, s.StoredBases, s.PeakSpaceBits, s.Iterations)
}

// ErrEmptyStream reports a pass that yielded no row although the source
// reported n > 0 rows, so no net could be drawn from it. (A source of
// n = 0 rows returns the domain's own solve of the empty set.)
var ErrEmptyStream = errors.New("stream: empty stream")

func (s *Stats) trackSpace(opt Options, liveItems, storedBases int) {
	if opt.BitsPerItem == 0 && opt.BitsPerBasis == 0 {
		return
	}
	bits := int64(liveItems)*int64(opt.BitsPerItem) + int64(storedBases)*int64(opt.BitsPerBasis)
	if bits > s.PeakSpaceBits {
		s.PeakSpaceBits = bits
	}
}
