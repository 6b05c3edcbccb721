package lptype

import (
	"math"
	"math/bits"
	"math/rand/v2"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sampling"
)

// SiteWeights is the weight state of one protocol participant that
// holds its whole partition — a coordinator site (in-process or an
// lpserved worker session) or an MPC machine. §3.2's "recompute the
// weights on the fly from the stored bases" buys a *stream* its
// O~(n^{1/r}) space; a site already stores its rows and may store a
// small integer next to each (§3.3, Lemma 3.7), so it keeps the
// exponents instead of the bases and never tests a row against the same
// basis twice:
//
//   - Test(pending) is one ViolatesBlock pass for the pending basis
//     plus a loop over its violators;
//   - Commit() (the pending basis succeeded) bumps the exponent of
//     exactly those violators;
//   - Draw(rng) samples a local row by current weight from an alias
//     table that is rebuilt, in place, only after a Commit that
//     changed a weight.
//
// So a failed iteration costs one violation pass and its draws, and
// only a successful one pays the dense work (bump → total → weights →
// alias), once.
//
// Every value is bit for bit what Store.Scan / Store.Weights +
// sampling.NewAlias recompute from the list of committed bases (the
// differential tests keep those as the oracle), because each is the
// same expression over the same operands in the same order:
//
//	(a) exps[i] counts the committed tests whose violator set contains
//	    row i — the integer WeightExpBlock recounts per scan;
//	(b) the total is the dense row-order Kahan sum of
//	    PowWeight(mult, exps[i]), and it can only change at a Commit
//	    with at least one local violator, so it is cached in between;
//	(c) the violator weight is its own Kahan accumulator, which only
//	    ever received the violators' weights, in row order — the
//	    sparse loop adds the same sequence;
//	(d) the alias table is a pure function of the weights, built by the
//	    one body sampling.NewAlias runs (Alias.Rebuild);
//	(e) Draw consumes the RNG exactly as Alias.Draw does, and building
//	    a table consumes none.
//
// Resident state is 21 B/row once the table exists — exponents 1 B
// (2 or 4 after 255 or 65 535 effective commits), prob 8, alias 4, one
// weight/scratch buffer 8 — plus 4 B per violator of the last tested
// basis (an ε-fraction of the rows when iterations succeed): under
// 24 B/row in a running protocol, half of the 48 B/row the recompute
// allocated per round. Nothing but the violator list exists before
// the first Draw, and Close drops all of it.
// A SiteWeights belongs to one site and is not safe for concurrent use.
type SiteWeights[C, B any] struct {
	st   *sourceStore[C, B]
	mult float64

	// exps is the per-row exponent array (a): zeroExps — no memory —
	// until the first effective Commit, then the narrowest integer
	// width that holds the number of effective commits.
	exps expArray
	// pow[e] = PowWeight(mult, e) for every exponent a row can hold:
	// len(pow)-1 counts the effective commits.
	pow []float64

	viol   []int32 // rows violating the last tested basis, ascending
	tested bool    // a non-nil basis was tested and not yet committed

	wTot    float64 // (b), valid while totOK
	totOK   bool
	w       []float64 // weights, then Rebuild's scratch
	alias   sampling.Alias
	aliasOK bool
}

// NewSiteWeights returns the weight state of a site holding src,
// scanned through ra. Reset installs a run's multiplier before the
// first Test.
func NewSiteWeights[C, B any](ra RowAccess[C, B], src dataset.Source) *SiteWeights[C, B] {
	if src.Rows() > math.MaxInt32 {
		panic("lptype: a site holds at most 2^31-1 rows")
	}
	return &SiteWeights[C, B]{st: newSourceStore(ra, src)}
}

// ShardSiteWeights returns the weight states of k sites holding src
// round-robin: site j sees rows j, j+k, j+2k, … in order. A sharded
// source whose shard count equals k puts one shard on each site — shard
// files are streamed by their site's scans and sampled by offset, so
// nothing is materialized; any other source is materialized (zero-copy
// when memory-backed) and split into views. The site contents are the
// same either way, so a protocol run over them is bit-identical across
// layouts. The caller closes the sites; on error none is open.
func ShardSiteWeights[C, B any](ra RowAccess[C, B], src dataset.Source, k int) ([]*SiteWeights[C, B], error) {
	sites := make([]*SiteWeights[C, B], k)
	if sh, ok := src.(dataset.Sharded); ok && sh.NumShards() == k {
		for i := range sites {
			sites[i] = NewSiteWeights(ra, sh.Shard(i))
		}
		return sites, nil
	}
	view, err := dataset.Materialize(src)
	if err != nil {
		return nil, err
	}
	for i, shard := range view.Shard(k) {
		sites[i] = NewSiteWeights(ra, shard)
	}
	return sites, nil
}

// Size returns the number of local constraints.
func (s *SiteWeights[C, B]) Size() int { return s.st.Size() }

// Item returns local constraint i, decoded (Store.Item's contract).
func (s *SiteWeights[C, B]) Item(i int) C { return s.st.Item(i) }

// Row returns local row i, undecoded: in place when the source is in
// memory, else read into one buffer the site reuses, so the row is
// valid until the next Row call. A site encodes its replies from it.
func (s *SiteWeights[C, B]) Row(i int) []float64 { return s.st.row(i) }

// Reset starts a run with weight multiplier mult: every weight is 1
// again and nothing is tested. Buffers are kept for reuse.
func (s *SiteWeights[C, B]) Reset(mult float64) {
	s.mult = mult
	s.exps = zeroExps(s.Size())
	s.pow = append(s.pow[:0], PowWeight(mult, 0))
	s.viol = s.viol[:0]
	s.tested, s.totOK, s.aliasOK = false, false, false
}

// Test reports the local total weight and — when pending is non-nil —
// the weight and number of the local constraints violating it,
// remembering which they are for Commit. A nil pending tests nothing
// and scans nothing.
func (s *SiteWeights[C, B]) Test(pending *B) (wTot, wViol float64, count int) {
	s.viol = s.viol[:0]
	s.tested = pending != nil
	if pending != nil {
		base := int32(0)
		s.st.pass(func(rows []dataset.Row) {
			s.st.blk.pidx = s.st.ra.ViolatesBlock(*pending, rows, s.st.blk.pidx)
			for _, p := range s.st.blk.pidx {
				s.viol = append(s.viol, base+p)
			}
			base += int32(len(rows))
		})
	}
	if !s.totOK {
		s.wTot, s.totOK = s.exps.weigh(s.pow, nil), true
	}
	return s.wTot, s.exps.violWeight(s.pow, s.viol), len(s.viol)
}

// Commit records that the basis of the last Test succeeded: its
// violators' weights are multiplied by mult. Each Test is committed at
// most once; committing with no tested basis is a caller bug.
func (s *SiteWeights[C, B]) Commit() {
	if !s.tested {
		panic("lptype: SiteWeights.Commit without a tested basis")
	}
	s.tested = false
	if len(s.viol) == 0 {
		return // no local weight changes: total and table stay valid
	}
	// An exponent never exceeds the number of effective commits, so the
	// array widens when that count outgrows the element type.
	commits := len(s.pow)
	if commits == 1 || commits == math.MaxUint8+1 || commits == math.MaxUint16+1 {
		s.exps = s.exps.widen()
	}
	s.pow = append(s.pow, PowWeight(s.mult, commits))
	s.exps.bump(s.viol)
	s.totOK, s.aliasOK = false, false
}

// Draw samples one local row index with probability proportional to
// its current weight. The first Draw after a weight change pays for the
// weights and the table; the rest are O(1).
func (s *SiteWeights[C, B]) Draw(rng *rand.Rand) int {
	if !s.aliasOK {
		n := s.Size()
		if cap(s.w) < n {
			s.w = make([]float64, n)
		}
		s.wTot, s.totOK = s.exps.weigh(s.pow, s.w[:n]), true
		s.alias.Rebuild(s.w[:n])
		s.aliasOK = true
	}
	return s.alias.Draw(rng)
}

// StateBytes returns the size of the resident per-row state: exponents,
// alias table, weight buffer and violator list.
func (s *SiteWeights[C, B]) StateBytes() int {
	bytes := 8*cap(s.pow) + 4*cap(s.viol) + 8*cap(s.w) + s.alias.Bytes()
	if s.exps != nil {
		bytes += s.exps.bytes()
	}
	return bytes
}

// Close drops the weight state and releases the scan cursor
// (file-backed cursors keep a descriptor). The site can be Reset and
// used again.
func (s *SiteWeights[C, B]) Close() {
	st := s.st
	*s = SiteWeights[C, B]{st: st}
	st.close()
}

// expArray is the exponent array behind identities (a)–(c), in one of
// its widths.
type expArray interface {
	// weigh returns the dense row-order Kahan total of pow[exponent],
	// also storing each weight into w when it is non-nil.
	weigh(pow, w []float64) float64
	// violWeight returns the Kahan sum of the weights of the rows in
	// viol, in that order.
	violWeight(pow []float64, viol []int32) float64
	// bump increments the exponent of every row in viol.
	bump(viol []int32)
	// widen returns the array copied into the next wider type.
	widen() expArray
	bytes() int
}

// zeroExps is the array before any effective commit: that many rows,
// every exponent 0, no memory.
type zeroExps int

func (n zeroExps) weigh(pow, w []float64) float64 {
	var tot numeric.Kahan
	for i := 0; i < int(n); i++ {
		tot.Add(pow[0])
	}
	for i := range w {
		w[i] = pow[0]
	}
	return tot.Sum()
}

func (n zeroExps) violWeight(pow []float64, viol []int32) float64 {
	var tot numeric.Kahan
	for range viol {
		tot.Add(pow[0])
	}
	return tot.Sum()
}

func (n zeroExps) bump([]int32)    { panic("lptype: bump before the exponent array exists") }
func (n zeroExps) widen() expArray { return make(exps[uint8], n) }
func (n zeroExps) bytes() int      { return 0 }

type exps[E uint8 | uint16 | uint32] []E

func (x exps[E]) weigh(pow, w []float64) float64 {
	var tot numeric.Kahan
	if w == nil {
		for _, e := range x {
			tot.Add(pow[e])
		}
		return tot.Sum()
	}
	for i, e := range x {
		w[i] = pow[e]
		tot.Add(pow[e])
	}
	return tot.Sum()
}

func (x exps[E]) violWeight(pow []float64, viol []int32) float64 {
	var tot numeric.Kahan
	for _, p := range viol {
		tot.Add(pow[x[p]])
	}
	return tot.Sum()
}

func (x exps[E]) bump(viol []int32) {
	for _, p := range viol {
		x[p]++
	}
}

func (x exps[E]) widen() expArray {
	switch x := any(x).(type) {
	case exps[uint8]:
		return widenTo[uint16](x)
	case exps[uint16]:
		return widenTo[uint32](x)
	}
	panic("lptype: more than 2^32-1 effective commits")
}

func widenTo[F, E uint8 | uint16 | uint32](src exps[E]) exps[F] {
	dst := make(exps[F], len(src))
	for i, e := range src {
		dst[i] = F(e)
	}
	return dst
}

func (x exps[E]) bytes() int { return len(x) * bits.Len64(uint64(^E(0))) / 8 }
