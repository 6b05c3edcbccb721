package coordinator

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/numeric"
	"lowdimlp/internal/sampling"
)

// siteRef is the site as it stood before sites kept their weights: the
// list of successful bases, a full Store.Scan over all of them every
// round A, Store.Weights + a fresh alias table every round B. Its
// roundA and roundB are the old bodies moved here verbatim; it shares
// only the Store oracle with protoSite, which is what makes
// TestSiteTranscriptMatchesReference an independent check.
type siteRef[C, B any] struct {
	store   lptype.Store[C, B]
	ccodec  comm.Codec[C]
	bcodec  comm.Codec[B]
	bases   []B
	rng     *rand.Rand
	pending *B
	mult    float64
}

func (s *siteRef[C, B]) Step(typ comm.FrameType, payload []byte) ([]byte, error) {
	switch typ {
	case comm.FrameBegin:
		seed, site, mult, err := comm.DecodeBeginPayload(payload)
		if err != nil {
			return nil, err
		}
		s.rng = numeric.NewRand(seed^siteSeedMix, uint64(site)+1)
		s.mult, s.bases, s.pending = mult, nil, nil
		b := comm.NewBuffer()
		b.PutUvarint(uint64(s.store.Size()))
		return b.Bytes(), nil
	case comm.FrameRoundA:
		return s.roundA(payload)
	case comm.FrameRoundB:
		return s.roundB(payload)
	case comm.FrameShipAll:
		rep := comm.NewBuffer()
		for i, n := 0, s.store.Size(); i < n; i++ {
			comm.PutValue(rep, s.ccodec, s.store.Item(i))
		}
		return rep.Bytes(), nil
	}
	return nil, fmt.Errorf("%w: unexpected frame type %d", comm.ErrProtocol, typ)
}

func (s *siteRef[C, B]) roundA(payload []byte) ([]byte, error) {
	req := comm.FromBytes(payload)
	has, err := req.Bool()
	if err != nil {
		return nil, fmt.Errorf("%w: round A flag: %v", comm.ErrProtocol, err)
	}
	s.pending = nil
	if has {
		basis, err := comm.Value(req, s.bcodec)
		if err != nil {
			return nil, fmt.Errorf("%w: round A basis: %v", comm.ErrProtocol, err)
		}
		s.pending = &basis
	}
	if req.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in round A request", comm.ErrProtocol, req.Remaining())
	}
	wTot, wViol, count := s.store.Scan(s.bases, s.pending, s.mult)
	rep := comm.NewBuffer()
	rep.PutFloat(wTot)
	rep.PutFloat(wViol)
	rep.PutInt(count)
	return rep.Bytes(), nil
}

func (s *siteRef[C, B]) roundB(payload []byte) ([]byte, error) {
	req := comm.FromBytes(payload)
	success, err := req.Bool()
	if err != nil {
		return nil, fmt.Errorf("%w: round B flag: %v", comm.ErrProtocol, err)
	}
	alloc, err := req.Int()
	if err != nil {
		return nil, fmt.Errorf("%w: round B allocation: %v", comm.ErrProtocol, err)
	}
	if req.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes in round B request", comm.ErrProtocol, req.Remaining())
	}
	if alloc < 0 {
		return nil, fmt.Errorf("%w: negative round B allocation %d", comm.ErrProtocol, alloc)
	}
	if success {
		if s.pending == nil {
			return nil, fmt.Errorf("%w: round B success with no pending basis", comm.ErrProtocol)
		}
		s.bases = append(s.bases, *s.pending)
	}
	if alloc == 0 {
		return nil, nil
	}
	w := make([]float64, s.store.Size())
	s.store.Weights(s.bases, s.mult, w)
	al := sampling.NewAlias(w)
	rep := comm.NewBuffer()
	for t := 0; t < alloc; t++ {
		comm.PutValue(rep, s.ccodec, s.store.Item(al.Draw(s.rng)))
	}
	return rep.Bytes(), nil
}

// exchange is one recorded frame of a site's transcript.
type exchange struct {
	typ      comm.FrameType
	req, rep []byte
}

// recordingTransport copies every frame a solve exchanges with its
// sites, Begin included (sent as a frame, which the loopback accepts),
// into one transcript per site.
type recordingTransport struct {
	comm.Transport
	log [][]exchange
}

func (r *recordingTransport) Begin(seed uint64, mult float64) error {
	for i := range r.log {
		if _, err := r.RoundTrip(i, comm.FrameBegin, comm.AppendBeginPayload(nil, seed, i, mult)); err != nil {
			return err
		}
	}
	return nil
}

func (r *recordingTransport) RoundTrip(site int, typ comm.FrameType, payload []byte) ([]byte, error) {
	rep, err := r.Transport.RoundTrip(site, typ, payload)
	if err == nil {
		r.log[site] = append(r.log[site], exchange{typ, bytes.Clone(payload), bytes.Clone(rep)})
	}
	return rep, err
}

// transcriptCase solves one instance over recording loopback sites and
// replays every site's requests against a siteRef over the same shard:
// each reply must be byte-equal.
func transcriptCase[C, B any](
	t *testing.T, what string, ra lptype.RowAccess[C, B], st *dataset.Store, k int,
	cc comm.RowCodec[C], bc comm.Codec[B], opt Options,
) Stats {
	t.Helper()
	shards := st.View().Shard(k)
	sites := make([]*protoSite[C, B], k)
	for i, v := range shards {
		sites[i] = newProtoSite(lptype.NewSiteWeights(ra, v), bc)
	}
	tr := &recordingTransport{Transport: newLocalTransport(sites), log: make([][]exchange, k)}
	_, stats, err := SolveTransport(ra.Domain(), tr, cc, bc, opt)
	if err != nil {
		t.Fatalf("%s: %v (%v)", what, err, stats)
	}
	for i, v := range shards {
		ref := &siteRef[C, B]{store: lptype.ViewStore(ra, v), ccodec: cc, bcodec: bc}
		for j, ex := range tr.log[i] {
			rep, err := ref.Step(ex.typ, ex.req)
			if err != nil {
				t.Fatalf("%s: site %d frame %d (type %d): reference refused it: %v", what, i, j, ex.typ, err)
			}
			if !bytes.Equal(rep, ex.rep) {
				t.Fatalf("%s: site %d frame %d (type %d): reply of %d bytes differs from the reference's %d bytes",
					what, i, j, ex.typ, len(ex.rep), len(rep))
			}
		}
	}
	return stats
}

// transcriptN is an input size past the ship-all threshold (n > 2m+1)
// for r ≥ 2 (r = 1 always ships all, which is a transcript too): at the
// default net constant r = 2 iterates only past n ≈ 50 000.
func transcriptN(r int, netConst float64) int {
	switch {
	case netConst > 0 || r == 1:
		return 12000
	case r == 2:
		return 600000
	}
	return 60000
}

// TestSiteTranscriptMatchesReference: every reply payload of every
// site, over full solves, is byte-equal to what the recompute-per-round
// site (siteRef) answers to the same requests — lp and meb × r ∈
// {1,2,3} × 5 seeds × NetConst {default, 0.2}.
// NetConst 0.2 makes iterations fail and sites accumulate ≥ 3
// successful bases. The r = 2 default-constant rows (n = 600 000) are
// skipped under -short.
func TestSiteTranscriptMatchesReference(t *testing.T) {
	const d, k = 2, 4
	maxSuccesses, failures, direct := 0, 0, 0
	for _, kind := range []string{"lp", "meb"} {
		for _, r := range []int{1, 2, 3} {
			for _, netConst := range []float64{0, 0.2} {
				n := transcriptN(r, netConst)
				if testing.Short() && n > 100000 {
					continue
				}
				var run func(what string, opt Options) Stats
				switch kind {
				case "lp":
					p, cons := sphereLP(d, n, 500+uint64(r))
					st := dataset.NewStore(d + 1)
					for _, c := range cons {
						st.AppendRow(append(append([]float64(nil), c.A...), c.B))
					}
					cc, bc := lpCodecs(d)
					run = func(what string, opt Options) Stats {
						ra := lptype.NewRowAccess[lp.Halfspace, lp.Basis](lp.NewDomain(p, 7),
							func(row []float64) lp.Halfspace { return lp.Halfspace{A: row[:d], B: row[d]} })
						return transcriptCase(t, what, ra, st, k, cc, bc, opt)
					}
				case "meb":
					st := dataset.NewStore(d)
					rng := numeric.NewRand(300+uint64(r), 3)
					for i := 0; i < n; i++ {
						st.AppendRow([]float64{rng.NormFloat64(), rng.NormFloat64()})
					}
					run = func(what string, opt Options) Stats {
						ra := lptype.NewRowAccess[meb.Point, meb.Basis](meb.NewDomain(d),
							func(row []float64) meb.Point { return meb.Point(row) })
						cc, bc := mebCodecs(d)
						return transcriptCase(t, what, ra, st, k, cc, bc, opt)
					}
				}
				for seed := uint64(1); seed <= 5; seed++ {
					what := fmt.Sprintf("%s r=%d nc=%v seed=%d", kind, r, netConst, seed)
					stats := run(what, Options{Core: core.Options{R: r, Seed: seed, NetConst: netConst}})
					maxSuccesses = max(maxSuccesses, stats.Successes)
					failures += stats.Failures
					if stats.DirectSolve {
						direct++
					}
				}
			}
		}
	}
	if maxSuccesses < 3 || failures == 0 || direct == 0 {
		t.Fatalf("matrix too tame: most successes in a run %d (want ≥ 3), failed iterations %d, ship-all runs %d",
			maxSuccesses, failures, direct)
	}
}

// mebCodecs are meb's codecs, spelled out like lpCodecs.
func mebCodecs(d int) (comm.RowCodec[meb.Point], comm.Codec[meb.Basis]) {
	return comm.RowCodec[meb.Point]{
		Width: d,
		Item:  func(row []float64) meb.Point { return meb.Point(row) },
		Row:   func(dst []float64, p meb.Point) []float64 { return append(dst, p...) },
	}, meb.BasisCodec{Dim: d}
}

// siteFixture returns two identical meb sites over one shard, begun
// with the same parameters, and two bases to test.
func siteFixture(t *testing.T) (a, b *protoSite[meb.Point, meb.Basis], basis [2][]byte) {
	t.Helper()
	const n, d = 3000, 3
	st := dataset.NewStore(d)
	rng := numeric.NewRand(17, 1)
	for i := 0; i < n; i++ {
		st.AppendRow([]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()})
	}
	dom := meb.NewDomain(d)
	ra := lptype.NewRowAccess[meb.Point, meb.Basis](dom, func(row []float64) meb.Point { return meb.Point(row) })
	bc := meb.BasisCodec{Dim: d}
	for i := range basis {
		pts := make([]meb.Point, 6)
		for j := range pts {
			pts[j] = meb.Point(st.Row(10*i + j))
		}
		bs, err := dom.Solve(pts)
		if err != nil {
			t.Fatal(err)
		}
		req := comm.NewBuffer()
		req.PutBool(true)
		comm.PutValue(req, comm.Codec[meb.Basis](bc), bs)
		basis[i] = req.Bytes()
	}
	mk := func() *protoSite[meb.Point, meb.Basis] {
		s := newProtoSite(lptype.NewSiteWeights(ra, st.View()), bc)
		if _, err := s.Step(nil, comm.FrameBegin, comm.AppendBeginPayload(nil, 5, 0, math.Sqrt(n))); err != nil {
			t.Fatal(err)
		}
		return s
	}
	return mk(), mk(), basis
}

func roundBReq(success bool, alloc int) []byte {
	req := comm.NewBuffer()
	req.PutBool(success)
	req.PutInt(alloc)
	return req.Bytes()
}

// TestSiteRoundAlternation is the state-machine table: a round B is
// consumed once per round A. Each hostile frame — a round B before any
// round A, a success flag with nothing tested, a replayed round B —
// must be comm.ErrProtocol and leave the site exactly where it was: a
// twin site that never saw the hostile frames answers every valid frame
// with the same bytes.
func TestSiteRoundAlternation(t *testing.T) {
	victim, twin, basis := siteFixture(t)
	noBasis := []byte{0}
	steps := []struct {
		name    string
		typ     comm.FrameType
		req     []byte
		hostile bool
	}{
		{"round B before any round A", comm.FrameRoundB, roundBReq(false, 0), true},
		{"successful round B before any round A", comm.FrameRoundB, roundBReq(true, 5), true},
		{"bootstrap round A", comm.FrameRoundA, noBasis, false},
		{"success with nothing tested", comm.FrameRoundB, roundBReq(true, 5), true},
		{"negative allocation", comm.FrameRoundB, roundBReq(false, -1), true},
		{"bootstrap round B", comm.FrameRoundB, roundBReq(false, 40), false},
		{"replayed bootstrap round B", comm.FrameRoundB, roundBReq(false, 40), true},
		{"round A", comm.FrameRoundA, basis[0], false},
		{"truncated round A", comm.FrameRoundA, basis[1][:9], true},
		{"successful round B", comm.FrameRoundB, roundBReq(true, 40), false},
		{"replayed successful round B", comm.FrameRoundB, roundBReq(true, 40), true},
		{"replayed round B, flag flipped", comm.FrameRoundB, roundBReq(false, 40), true},
		{"next round A", comm.FrameRoundA, basis[1], false},
		{"round A again", comm.FrameRoundA, basis[1], false},
		{"failed round B", comm.FrameRoundB, roundBReq(false, 40), false},
		{"last round A", comm.FrameRoundA, basis[0], false},
		{"last round B", comm.FrameRoundB, roundBReq(true, 0), false},
		{"round B after an empty-allocation round B", comm.FrameRoundB, roundBReq(true, 0), true},
	}
	for _, st := range steps {
		got, err := victim.Step(nil, st.typ, st.req)
		if st.hostile {
			if !errors.Is(err, comm.ErrProtocol) {
				t.Fatalf("%s: error %v, want comm.ErrProtocol", st.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		want, err := twin.Step(nil, st.typ, st.req)
		if err != nil {
			t.Fatalf("%s (twin): %v", st.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: reply differs from the undisturbed twin's — a refused frame changed the site's state", st.name)
		}
	}
}

// TestSiteFailedIterationAllocations: once a site's buffers exist, a
// failed iteration — round A with a pending basis, round B with the
// failure flag and an allocation — allocates only the decoded pending
// basis (the struct and its center); the reports, the draws and the
// reply cost nothing.
func TestSiteFailedIterationAllocations(t *testing.T) {
	site, _, basis := siteFixture(t)
	var reply []byte
	step := func(typ comm.FrameType, req []byte) {
		var err error
		if reply, err = site.Step(reply[:0], typ, req); err != nil {
			t.Fatal(err)
		}
	}
	step(comm.FrameRoundA, basis[0])
	step(comm.FrameRoundB, roundBReq(true, 100))
	failed := roundBReq(false, 100)
	allocs := testing.AllocsPerRun(20, func() {
		step(comm.FrameRoundA, basis[1])
		step(comm.FrameRoundB, failed)
	})
	if allocs > 2 {
		t.Fatalf("failed iteration allocates %.1f times, want ≤ 2 (the decoded basis)", allocs)
	}
}
