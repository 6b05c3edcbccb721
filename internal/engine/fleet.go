package engine

import (
	"errors"
	"fmt"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/coordinator"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
)

// This file is the registry's networked-coordinator bridge: any
// registered kind can host one shard of itself in a worker process
// (NewSiteHost — the lpserved -worker side) and drive Algorithm 1
// over a fleet of such workers (SolveTransport / SolveFleet — the
// coordinator side), with no per-kind code anywhere.

// NewSiteHost returns the worker-side protocol host for one shard of
// an instance of this kind: sessions scan src through the kind's
// row-access layer (no materialization) and answer round-A/round-B
// frames. The objective is the shard header's — every shard of an
// instance repeats it.
func (s *Spec[P, C, B]) NewSiteHost(dim int, objective []float64, src dataset.Source) (coordinator.SiteHost, error) {
	if dim < 1 {
		return nil, fmt.Errorf("%s: dim must be ≥ 1, got %d", s.Name, dim)
	}
	if want := s.Width(dim); src.Width() != want {
		return nil, fmt.Errorf("%s: source width %d, want %d at dim %d", s.Name, src.Width(), want, dim)
	}
	p, err := s.Problem(Instance{Dim: dim, Objective: objective})
	if err != nil {
		return nil, err
	}
	// The domain is built per session (at Begin) because the seed is a
	// per-run parameter; the seed mix matches the coordinator side's
	// dispatchers, so worker-local arithmetic is the in-process
	// arithmetic.
	access := func(seed uint64) lptype.RowAccess[C, B] { return specAccess(s, p, seed^s.SeedMix) }
	return coordinator.NewSourceSiteHost(access, src, s.BasisCodec(dim)), nil
}

// SolveTransport runs the coordinator backend over an explicit
// transport — the loopback transport for tests, the HTTP fleet
// transport for real multi-process solves. Bit-identical to
// SolveSource on the coordinator backend for the same shard contents,
// seed and options (the conformance suite pins this).
func (s *Spec[P, C, B]) SolveTransport(dim int, objective []float64, tr comm.Transport, opt Options) (Solution, Stats, error) {
	var stats Stats
	if err := opt.Check(); err != nil {
		return Solution{}, stats, err
	}
	if dim < 1 {
		return Solution{}, stats, fmt.Errorf("%s: dim must be ≥ 1, got %d", s.Name, dim)
	}
	p, err := s.Problem(Instance{Dim: dim, Objective: objective})
	if err != nil {
		return Solution{}, stats, err
	}
	dom := s.NewDomain(p, opt.Seed^s.SeedMix)
	b, st, err := coordinator.SolveTransport(dom, tr, s.ItemCodec(dim), s.BasisCodec(dim), opt.coordinator())
	stats.Coordinator = &st
	if err != nil {
		return Solution{}, stats, err
	}
	return s.Render(dim, b), stats, nil
}

// SolveFleet dials a fleet of lpserved worker processes (worker i =
// site i), resolves the instance kind from the workers' shard
// headers, and runs the two-round protocol against them. It returns
// the kind alongside the solution so callers that did not know what
// the fleet holds (lpsolve -workers, lpserved fleet requests) can
// report it.
func SolveFleet(workers []string, opt Options) (string, Solution, Stats, error) {
	return SolveFleetTransport(workers, opt, httptransport.Options{}, "")
}

// SolveFleetTransport is SolveFleet with explicit transport options
// (per-exchange timeout, custom HTTP client) and an optional kind
// expectation: a non-empty expectKind fails the solve before any
// protocol round when the fleet holds a different kind.
func SolveFleetTransport(workers []string, opt Options, topt httptransport.Options, expectKind string) (string, Solution, Stats, error) {
	fleet, err := httptransport.Dial(workers, topt)
	if err != nil {
		return "", Solution{}, Stats{}, err
	}
	info := fleet.Info()
	if expectKind != "" && expectKind != info.Kind {
		return info.Kind, Solution{}, Stats{},
			fmt.Errorf("the worker fleet holds kind %q, request says %q", info.Kind, expectKind)
	}
	m, err := lookup(info.Kind)
	if err != nil {
		return info.Kind, Solution{}, Stats{}, err
	}
	tr := fleet.Run()
	defer tr.Close()
	sol, stats, err := m.SolveTransport(info.Dim, info.Objective, tr, opt)
	return info.Kind, sol, stats, err
}

// Membership is the elastic driver's view of a worker registry: the
// live fleet to dial, and a sink for the failure reports that shrink
// it. registry.Registry implements it; tests use fakes.
type Membership interface {
	// LiveWorkers returns the current live worker URLs in site order.
	LiveWorkers() []string
	// ReportFailure marks one worker down after a failed exchange.
	ReportFailure(url string, err error)
}

// maxFleetAttempts bounds the retry loop: 1 clean attempt plus up to
// 4 retries. Each retry removes at least one worker from the
// membership, so in a k-worker fleet the loop is doubly bounded; the
// cap exists for pathological memberships that keep replacing dead
// workers with equally dead ones.
const maxFleetAttempts = 5

// SolveFleetElastic is the retry-from-round-start driver: it runs
// SolveFleetTransport against the registry's live membership and, when
// an attempt dies with a worker-attributed transport error, reports
// that worker down and re-runs the whole protocol — same seed, same
// options — on the survivors.
//
// Retrying from round start (in fact from Begin) is the right
// granularity here, not an optimization shortcut: a dead worker takes
// its site's RNG stream and pending-basis state with it, and the
// ε-net sampling of Lemma 3.7 draws from the *current* membership's
// row partition, so any splice of old-round state onto a new
// membership would compute a sample no clean run could produce. A
// full restart instead guarantees the result is bit-identical to a
// clean run on the final membership — the property the conformance
// suites pin for every transport. The two-round protocol makes the
// discarded work at most one round-trip per site.
//
// Metering is honest: the returned Stats fold every failed attempt's
// Rounds/TotalBits/Messages into the totals and report the restart
// count in Stats.Retries, rather than pretending the first attempts
// never happened.
func SolveFleetElastic(ms Membership, opt Options, topt httptransport.Options, expectKind string) (string, Solution, Stats, error) {
	var burned coordinator.Stats // failed attempts' metered traffic
	retries := 0
	// fold merges the failed attempts' accounting into a final
	// attempt's stats (success or terminal failure). When nothing was
	// retried it is a no-op, so single-attempt solves keep bit-equal
	// stats with the plain driver.
	fold := func(stats *Stats) {
		if retries == 0 || stats.Coordinator == nil {
			return
		}
		stats.Coordinator.Retries = retries
		stats.Coordinator.Rounds += burned.Rounds
		stats.Coordinator.TotalBits += burned.TotalBits
		stats.Coordinator.Messages += burned.Messages
	}
	for attempt := 1; ; attempt++ {
		workers := ms.LiveWorkers()
		if len(workers) == 0 {
			return "", Solution{}, Stats{}, fmt.Errorf("fleet solve: no live workers in the registry (after %d retries)", retries)
		}
		kind, sol, stats, err := SolveFleetTransport(workers, opt, topt, expectKind)
		if err == nil {
			fold(&stats)
			return kind, sol, stats, nil
		}
		var terr *comm.TransportError
		retryable := errors.As(err, &terr) && terr.Site >= 0 && terr.Site < len(workers)
		if !retryable || attempt >= maxFleetAttempts {
			fold(&stats)
			if !retryable {
				return kind, sol, stats, err
			}
			ms.ReportFailure(workers[terr.Site], err)
			return kind, sol, stats, fmt.Errorf("fleet solve: giving up after %d attempts: %w", attempt, err)
		}
		ms.ReportFailure(workers[terr.Site], err)
		retries++
		if stats.Coordinator != nil {
			burned.Rounds += stats.Coordinator.Rounds
			burned.TotalBits += stats.Coordinator.TotalBits
			burned.Messages += stats.Coordinator.Messages
		}
	}
}
