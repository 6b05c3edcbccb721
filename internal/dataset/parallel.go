// The parallel out-of-core scan: one goroutine per shard reads and
// decodes blocks concurrently while the consumer merges them back into
// the exact single-cursor row order. The streaming solver's arithmetic
// is order-dependent (Kahan sums, reservoir RNG draws), so parallelism
// lives entirely below the row sequence: the merged order is identical
// to ShardedFile.NewCursor's, hence the result is bit-identical to the
// sequential scan — only wall-clock changes. What overlaps is the
// expensive part of a file scan: disk reads and float64 decoding
// happen on the shard workers while the solver consumes
// already-decoded rows.
//
// Buffering protocol (per shard): 3 blocks rotate between the worker
// and the merger through two channels. The merger recycles consumed
// blocks only at the next Next/Reset call (handed-out row views must
// survive until then) and stops filling a batch rather than hold all
// of a shard's blocks, so neither side can starve the other.
package dataset

import (
	"fmt"
	"sync"
)

// parallelBlockRows is the per-block row count of the parallel scan:
// big enough that per-block channel handoffs are noise, small enough
// that 3 blocks × k shards stay cache-friendly.
const parallelBlockRows = 512

// Parallel wraps a sharded source so that its cursors scan with one
// decode goroutine per shard. Row order, and therefore every solver
// result, is bit-identical to the plain cursor; non-sharded (or
// single-shard) sources are returned unchanged. Cursors taken from the
// wrapper own goroutines: release them with CloseCursor.
func Parallel(src Source) Source {
	sh, ok := src.(Sharded)
	if !ok || sh.NumShards() < 2 {
		return src
	}
	return parallelSource{sh}
}

type parallelSource struct {
	Sharded
}

func (p parallelSource) NewCursor() Cursor { return NewParallelCursor(p.Sharded) }

// pblock is one block in flight between a shard worker and the merger.
// views is what the merger hands out: for buffered (file) shards they
// point into the block's own vals arena, which the worker filled by
// copy; for memory-backed shards (mapped files, stores) they point
// straight into the shard's arena — no value ever moves.
type pblock struct {
	views []Row
	vals  []float64 // nil for zero-copy (memory-backed) shards
	rows  int
	err   error
}

// pshard is the per-shard side of the parallel cursor.
type pshard struct {
	cur       Cursor
	width     int
	blockRows int
	copyVals  bool          // buffered shard: rows must be copied out of the cursor
	start     chan struct{} // merger → worker: begin a pass
	out       chan *pblock  // worker → merger: filled blocks, then a 0-row terminal
	free      chan *pblock  // merger → merger → worker: recycled blocks
}

// ParallelCursor merges per-shard worker streams into original row
// order. It satisfies Cursor; Close stops the workers (CloseCursor
// does this for callers that hold it as a plain Cursor).
type ParallelCursor struct {
	shards []*pshard
	wg     sync.WaitGroup

	started bool
	closed  bool
	cur     []*pblock // current block per shard (nil before first fetch)
	used    []int     // rows of cur[j] already handed out
	retired []int     // blocks of shard j parked in pending this call
	pending []*pblock // consumed blocks awaiting recycle (views still live)
	pendSh  []int     // shard index of each pending block
	done    []bool
	active  int
	next    int
}

// NewParallelCursor returns a parallel cursor over the shards of src.
// The first Next (or Reset) starts the workers' first pass.
func NewParallelCursor(src Sharded) *ParallelCursor {
	k := src.NumShards()
	width := src.Width()
	p := &ParallelCursor{
		shards:  make([]*pshard, k),
		cur:     make([]*pblock, k),
		used:    make([]int, k),
		retired: make([]int, k),
		pending: make([]*pblock, 0, 3*k),
		pendSh:  make([]int, 0, 3*k),
		done:    make([]bool, k),
	}
	for j := 0; j < k; j++ {
		shard := src.Shard(j)
		_, mem := shard.(RandomAccess)
		s := &pshard{
			cur:       shard.NewCursor(),
			width:     width,
			blockRows: parallelBlockRows,
			copyVals:  !mem,
			start:     make(chan struct{}, 1),
			out:       make(chan *pblock, 3),
			free:      make(chan *pblock, 3),
		}
		for b := 0; b < 3; b++ {
			blk := &pblock{views: make([]Row, s.blockRows)}
			if s.copyVals {
				// The views into a copy block never move: precompute
				// them once so refills touch only the float payload.
				blk.vals = make([]float64, s.blockRows*width)
				for t := range blk.views {
					blk.views[t] = blk.vals[t*width : (t+1)*width : (t+1)*width]
				}
			}
			s.free <- blk
		}
		p.shards[j] = s
		p.wg.Add(1)
		go p.worker(s)
	}
	return p
}

// worker streams one shard: per start token it resets the shard
// cursor, fills recycled blocks with decoded rows, and finishes the
// pass with a 0-row terminal block. It allocates nothing per pass.
func (p *ParallelCursor) worker(s *pshard) {
	defer p.wg.Done()
	batch := make([]Row, 64)
	for range s.start {
		err := s.cur.Reset()
		for {
			blk := <-s.free
			blk.rows, blk.err = 0, nil
			filled := 0
			for err == nil && filled < s.blockRows {
				space := s.blockRows - filled
				if space > len(batch) {
					space = len(batch)
				}
				nr, nerr := s.cur.Next(batch[:space])
				if nerr != nil {
					err = nerr
					break
				}
				if nr == 0 {
					break
				}
				if s.copyVals {
					for _, row := range batch[:nr] {
						copy(blk.vals[filled*s.width:(filled+1)*s.width], row)
						filled++
					}
				} else {
					// Memory-backed shard: its cursor's views are
					// stable arena pointers — ship the headers.
					copy(blk.views[filled:filled+nr], batch[:nr])
					filled += nr
				}
			}
			blk.rows, blk.err = filled, err
			s.out <- blk
			// A short block means EOF or error: the next loop iteration
			// would send the 0-row terminal, but an errored or empty
			// block already is terminal.
			if err != nil || filled == 0 {
				break
			}
		}
	}
}

// startPass resets the merge state and releases every worker into a
// new pass.
func (p *ParallelCursor) startPass() {
	for j := range p.shards {
		p.cur[j], p.used[j], p.done[j] = nil, 0, false
	}
	p.pending = p.pending[:0]
	p.pendSh = p.pendSh[:0]
	p.active = len(p.shards)
	p.next = 0
	for _, s := range p.shards {
		s.start <- struct{}{}
	}
	p.started = true
}

// recyclePending returns consumed blocks (whose views are now dead) to
// their workers.
func (p *ParallelCursor) recyclePending() {
	for i, blk := range p.pending {
		p.shards[p.pendSh[i]].free <- blk
	}
	p.pending = p.pending[:0]
	p.pendSh = p.pendSh[:0]
}

// Reset abandons the pass in flight (draining the workers) so the next
// Next starts a fresh one.
func (p *ParallelCursor) Reset() error {
	if p.closed {
		return fmt.Errorf("dataset: Reset of a closed parallel cursor")
	}
	if p.started {
		p.drain()
		p.started = false
	}
	return nil
}

// drain runs the in-flight pass to completion, recycling every block,
// so all workers return to their start-wait.
func (p *ParallelCursor) drain() {
	p.recyclePending()
	for j, s := range p.shards {
		if p.cur[j] != nil {
			s.free <- p.cur[j]
			p.cur[j] = nil
		}
		for !p.done[j] {
			blk := <-s.out
			terminal := blk.rows == 0 || blk.err != nil
			s.free <- blk
			if terminal {
				p.done[j] = true
			}
		}
	}
	p.active = 0
}

// Next merges up to len(batch) rows in original order. Views are valid
// until the following Next or Reset, exactly as for file cursors.
func (p *ParallelCursor) Next(batch []Row) (int, error) {
	if p.closed {
		return 0, fmt.Errorf("dataset: Next on a closed parallel cursor")
	}
	if !p.started {
		p.startPass()
	}
	p.recyclePending()
	for j := range p.retired {
		p.retired[j] = 0
	}
	k := len(p.shards)
	i := 0
	for i < len(batch) && p.active > 0 {
		// Fast path: every shard live and aligned at a round boundary —
		// emit whole rounds with no per-row bookkeeping. This is the
		// scan's steady state and what makes the merged view handoff
		// cheaper than a buffered single-file decode.
		if p.active == k && p.next == 0 {
			q := (len(batch) - i) / k
			for j := 0; j < k; j++ {
				if p.cur[j] == nil {
					q = 0
					break
				}
				if avail := p.cur[j].rows - p.used[j]; avail < q {
					q = avail
				}
			}
			if q > 0 {
				for t := 0; t < q; t++ {
					for j := 0; j < k; j++ {
						batch[i] = p.cur[j].views[p.used[j]]
						p.used[j]++
						i++
					}
				}
				continue
			}
		}
		j := p.next
		if p.done[j] {
			p.next = (j + 1) % len(p.shards)
			continue
		}
		if p.cur[j] == nil || p.used[j] == p.cur[j].rows {
			if p.cur[j] != nil {
				// Park the consumed block; its views live until the
				// next Next/Reset.
				p.pending = append(p.pending, p.cur[j])
				p.pendSh = append(p.pendSh, j)
				p.cur[j] = nil
				p.retired[j]++
				if p.retired[j] >= 2 {
					// The merger holds all of this shard's spare
					// blocks; fetching a third would starve the
					// worker. Partial batch; recycle next call.
					break
				}
			}
			blk := <-p.shards[j].out
			if blk.err != nil {
				err := blk.err
				p.shards[j].free <- blk
				p.done[j] = true
				p.active--
				return i, err
			}
			if blk.rows == 0 {
				p.shards[j].free <- blk
				p.done[j] = true
				p.active--
				p.next = (j + 1) % len(p.shards)
				continue
			}
			p.cur[j] = blk
			p.used[j] = 0
		}
		batch[i] = p.cur[j].views[p.used[j]]
		p.used[j]++
		i++
		p.next = (j + 1) % len(p.shards)
	}
	return i, nil
}

// Close drains any pass in flight, stops the workers and closes the
// shard cursors. The cursor is unusable afterwards.
func (p *ParallelCursor) Close() error {
	if p.closed {
		return nil
	}
	if p.started {
		p.drain()
	}
	p.closed = true
	for _, s := range p.shards {
		close(s.start)
	}
	p.wg.Wait()
	for _, s := range p.shards {
		CloseCursor(s.cur)
	}
	return nil
}

// interface conformance
var (
	_ Source = parallelSource{}
	_ Cursor = (*ParallelCursor)(nil)
)
