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
// solved, each tested) are core.Run's. Typed streams (Stream[C]) are
// served by the same driver: Solve adapts the stream to a Source whose
// cursor encodes the items into rows on every pass.
package stream

import (
	"errors"
	"fmt"

	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
)

// Stream is a re-scannable sequence of constraints — the streaming
// model's input. Implementations need not materialize the items.
type Stream[C any] interface {
	// Reset rewinds to the beginning (starts a new pass).
	Reset()
	// Next returns the next item, or ok=false at the end of the pass.
	Next() (item C, ok bool)
}

// SliceStream adapts an in-memory slice.
type SliceStream[C any] struct {
	Items []C
	pos   int
}

// NewSliceStream returns a stream over items.
func NewSliceStream[C any](items []C) *SliceStream[C] { return &SliceStream[C]{Items: items} }

// Reset rewinds the stream.
func (s *SliceStream[C]) Reset() { s.pos = 0 }

// Next returns the next item.
func (s *SliceStream[C]) Next() (C, bool) {
	var zero C
	if s.pos >= len(s.Items) {
		return zero, false
	}
	it := s.Items[s.pos]
	s.pos++
	return it, true
}

// FuncStream generates items on demand from an index function: the
// stream never materializes its n items, so experiments can exercise
// inputs far larger than memory — the regime the streaming model is
// about.
type FuncStream[C any] struct {
	N   int
	Gen func(i int) C
	pos int
}

// NewFuncStream returns a stream of n generated items.
func NewFuncStream[C any](n int, gen func(i int) C) *FuncStream[C] {
	return &FuncStream[C]{N: n, Gen: gen}
}

// Reset rewinds the stream.
func (s *FuncStream[C]) Reset() { s.pos = 0 }

// Next returns the next item.
func (s *FuncStream[C]) Next() (C, bool) {
	var zero C
	if s.pos >= s.N {
		return zero, false
	}
	it := s.Gen(s.pos)
	s.pos++
	return it, true
}

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

// ErrStreamLength reports a pass over a typed stream that yielded a
// different number of items than the solve was sized for — a
// caller-supplied n that disagrees with the stream, or a stream whose
// length changes between passes. ε, the net size and the space
// accounting all derive from n, so a wrong n is an error, not a
// differently-sized solve.
var ErrStreamLength = errors.New("stream: pass length differs from n")

// RowEncoder appends item i's flat wire row to dst and returns the
// extended slice: exactly the row width in numbers, or an error that
// rejects the item (the engine's encoder validates width and the
// kind's row invariants here).
type RowEncoder[C any] func(dst []float64, i int, item C) ([]float64, error)

// Solve runs SolveDataset over a typed stream of n items, encoding
// each item into a width-number row on every pass — the stream is
// never materialized, so a generated stream far larger than memory
// solves in the solver's own O(net) space. Pass n ≤ 0 to have Solve
// count the items with one extra pass (reported in Stats.Passes and
// Stats.ItemsScanned); a pass that then yields any other count fails
// with ErrStreamLength.
func Solve[C, B any](ra lptype.RowAccess[C, B], st Stream[C], n, width int, encode RowEncoder[C], opt Options) (B, Stats, error) {
	counted := n <= 0
	if counted {
		n = 0
		st.Reset()
		for {
			if _, ok := st.Next(); !ok {
				break
			}
			n++
		}
	}
	b, stats, err := SolveDataset(ra, &rowSource[C]{st: st, n: n, width: width, encode: encode}, opt)
	if counted {
		stats.Passes++
		stats.ItemsScanned += int64(n)
	}
	return b, stats, err
}

// rowSource serves a typed Stream as a dataset.Source. The stream is
// one stateful sequence, so (unlike stored sources) its cursors are
// not independent: one scan at a time, which is all a solve needs.
type rowSource[C any] struct {
	st       Stream[C]
	n, width int
	encode   RowEncoder[C]
}

func (s *rowSource[C]) Width() int                { return s.width }
func (s *rowSource[C]) Rows() int                 { return s.n }
func (s *rowSource[C]) NewCursor() dataset.Cursor { return &rowCursor[C]{src: s} }

// rowCursor encodes each batch of items into its own arena, reused
// across batches and passes: 0 allocations per pass at steady state,
// and (as for every cursor) the row views die at the next Next.
type rowCursor[C any] struct {
	src   *rowSource[C]
	pos   int // items yielded so far this pass
	arena []float64
}

func (c *rowCursor[C]) Reset() error {
	c.src.st.Reset()
	c.pos = 0
	return nil
}

func (c *rowCursor[C]) Next(batch []dataset.Row) (int, error) {
	s := c.src
	if need := len(batch) * s.width; cap(c.arena) < need {
		c.arena = make([]float64, 0, need)
	}
	arena := c.arena[:0]
	for k := range batch {
		item, ok := s.st.Next()
		if !ok {
			if c.pos != s.n {
				return 0, fmt.Errorf("%w: pass ended after %d items, want %d", ErrStreamLength, c.pos, s.n)
			}
			return k, nil
		}
		if c.pos == s.n {
			return 0, fmt.Errorf("%w: pass yields more than %d items", ErrStreamLength, s.n)
		}
		lo := len(arena)
		var err error
		if arena, err = s.encode(arena, c.pos, item); err != nil {
			return 0, err
		}
		batch[k] = arena[lo:len(arena):len(arena)]
		c.pos++
	}
	return len(batch), nil
}

func (s *Stats) trackSpace(opt Options, liveItems, storedBases int) {
	if opt.BitsPerItem == 0 && opt.BitsPerBasis == 0 {
		return
	}
	bits := int64(liveItems)*int64(opt.BitsPerItem) + int64(storedBases)*int64(opt.BitsPerBasis)
	if bits > s.PeakSpaceBits {
		s.PeakSpaceBits = bits
	}
}
