package coordinator_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/coordinator"
	"lowdimlp/internal/core"
)

var errNotOverlapped = errors.New("the round's other exchanges were not in flight within 5 s")

// barrierTransport holds every exchange until all k sites have one in
// flight: a round whose k exchanges do not overlap cannot pass it. An
// exchange that waits 5 s in vain fails, and so does every later one.
type barrierTransport struct {
	comm.Transport
	mu      sync.Mutex
	arrived int
	release chan struct{}
	broken  bool
}

func (b *barrierTransport) RoundTrip(site int, typ comm.FrameType, payload []byte) ([]byte, error) {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return nil, &comm.TransportError{Site: site, Type: typ, Err: errNotOverlapped}
	}
	if b.release == nil {
		b.release = make(chan struct{})
	}
	release := b.release
	if b.arrived++; b.arrived == b.Sites() {
		close(release)
		b.arrived, b.release = 0, nil
	}
	b.mu.Unlock()
	select {
	case <-release:
		return b.Transport.RoundTrip(site, typ, payload)
	case <-time.After(5 * time.Second):
		b.mu.Lock()
		b.broken = true
		b.mu.Unlock()
		return nil, &comm.TransportError{Site: site, Type: typ, Err: errNotOverlapped}
	}
}

// TestRoundExchangesOverlap: every round — A, B and ship-all — has its
// k exchanges in flight together, and the overlap changes nothing: the
// answer and every Stats field are the golden table's.
func TestRoundExchangesOverlap(t *testing.T) {
	for _, rn := range []struct {
		key string
		opt coordinator.Options
	}{
		{"lp/r=2/nc=0.5/mc=false/seed=1", coordinator.Options{Core: core.Options{R: 2, Seed: 1, NetConst: 0.5}}},
		{"lp/r=2/nc=0.5/mc=true/seed=1", coordinator.Options{Core: core.Options{R: 2, Seed: 1, NetConst: 0.5, MonteCarlo: true}}},
	} {
		wrap := func(tr comm.Transport) comm.Transport { return &barrierTransport{Transport: tr} }
		got, err := coordGoldenRun("lp", 2, wrap, rn.opt)
		if err != nil {
			t.Fatalf("%s: %v", rn.key, err)
		}
		if want := coordGolden[rn.key]; got != want {
			t.Errorf("%s: overlapped run %+v, golden %+v", rn.key, got, want)
		}
	}
}

// sitesFault fails the nth frame of one type on each site in fail,
// without delivering it. Each site counts in its own slot, so the
// round's concurrent exchanges share nothing.
type sitesFault struct {
	comm.Transport
	fail map[int]bool
	typ  comm.FrameType
	nth  int
	// cut, when positive, delivers the nth reply cut to its first cut
	// bytes instead of failing the exchange.
	cut  int
	seen []int
}

func (f *sitesFault) RoundTrip(site int, typ comm.FrameType, payload []byte) ([]byte, error) {
	if f.fail[site] && typ == f.typ {
		if f.seen[site]++; f.seen[site] == f.nth {
			if f.cut > 0 {
				rep, err := f.Transport.RoundTrip(site, typ, payload)
				return rep[:min(f.cut, len(rep))], err
			}
			return nil, &comm.TransportError{Site: site, Type: typ, Err: errInjected}
		}
	}
	return f.Transport.RoundTrip(site, typ, payload)
}

func faultWrap(f *sitesFault) func(comm.Transport) comm.Transport {
	return func(tr comm.Transport) comm.Transport {
		f.Transport, f.seen = tr, make([]int, tr.Sites())
		return f
	}
}

// TestTwoSitesFailInOneRoundA: sites 1 and 2 fail their 3rd round A
// together. The lowest of them is named, and the failed run is metered
// as when the round's sites were addressed one after another: every
// site is addressed, and only the replies that arrived are charged.
func TestTwoSitesFailInOneRoundA(t *testing.T) {
	opt := coordinator.Options{Core: core.Options{R: 2, Seed: 1, NetConst: 0.2}}
	got, err := coordGoldenRun("lp", 2, faultWrap(&sitesFault{fail: map[int]bool{1: true, 2: true}, typ: comm.FrameRoundA, nth: 3}), opt)
	var terr *comm.TransportError
	if !errors.As(err, &terr) || !errors.Is(err, errInjected) || terr.Site != 1 || terr.Type != comm.FrameRoundA {
		t.Fatalf("error %v, want the injected round A failure of site 1", err)
	}
	// Recorded with the round's sites addressed in order.
	if s := got.stats; s.Rounds != 5 || s.TotalBits != 980848 || s.Messages != 38 {
		t.Errorf("failed run metered rounds=%d bits=%d messages=%d, want rounds=5 bits=980848 messages=38",
			s.Rounds, s.TotalBits, s.Messages)
	}
}

// TestShipAllFailureMetersEverySite: when one site fails the ship-all
// round, every other site's reply is still decoded and charged, one
// message per constraint, like rounds A and B. A reply cut inside row j
// fails at item j, and its j rows before the cut are charged too.
func TestShipAllFailureMetersEverySite(t *testing.T) {
	const key = "lp/r=2/nc=0.5/mc=true/seed=1"
	opt := coordinator.Options{Core: core.Options{R: 2, Seed: 1, NetConst: 0.5, MonteCarlo: true}}
	clean := coordGolden[key].stats
	if !clean.DirectSolve {
		t.Fatalf("%s is not a ship-all run", key)
	}
	got, err := coordGoldenRun("lp", 2, faultWrap(&sitesFault{fail: map[int]bool{1: true}, typ: comm.FrameShipAll, nth: 1}), opt)
	var terr *comm.TransportError
	if !errors.As(err, &terr) || !errors.Is(err, errInjected) || terr.Site != 1 {
		t.Fatalf("error %v, want the injected ship-all failure of site 1", err)
	}
	// The round-robin sites hold N/K rows each, and lp rows of one
	// dimension encode to one size.
	msgs := clean.Messages - coordGoldenN/coordGoldenK
	if s := got.stats; s.Rounds != 1 || s.Messages != msgs || s.TotalBits != clean.TotalBits/clean.Messages*msgs {
		t.Errorf("failed ship-all metered rounds=%d bits=%d messages=%d, want rounds=1 bits=%d messages=%d",
			s.Rounds, s.TotalBits, s.Messages, clean.TotalBits/clean.Messages*msgs, msgs)
	}

	const j, rowBytes = 100, 8 * 3 // an lp row at d = 2
	got, err = coordGoldenRun("lp", 2, faultWrap(&sitesFault{fail: map[int]bool{1: true}, typ: comm.FrameShipAll, nth: 1, cut: j*rowBytes + 5}), opt)
	if !errors.As(err, &terr) || !errors.Is(err, comm.ErrProtocol) || terr.Site != 1 || !strings.Contains(err.Error(), fmt.Sprintf("item %d:", j)) {
		t.Fatalf("error %v, want a protocol error of site 1 at item %d", err, j)
	}
	msgs = clean.Messages - coordGoldenN/coordGoldenK + j
	if s := got.stats; s.Rounds != 1 || s.Messages != msgs || s.TotalBits != clean.TotalBits/clean.Messages*msgs {
		t.Errorf("cut ship-all metered rounds=%d bits=%d messages=%d, want rounds=1 bits=%d messages=%d",
			s.Rounds, s.TotalBits, s.Messages, clean.TotalBits/clean.Messages*msgs, msgs)
	}
}

// TestRoundsLeaveNoGoroutines: a round's exchanges are all finished
// when it returns, after a successful solve and after a failed one.
func TestRoundsLeaveNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	opt := coordinator.Options{Core: core.Options{R: 2, Seed: 1, NetConst: 0.2}}
	if _, err := coordGoldenRun("lp", 2, nil, opt); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "successful solve", base)
	if _, err := coordGoldenRun("lp", 2, faultWrap(&sitesFault{fail: map[int]bool{2: true}, typ: comm.FrameRoundB, nth: 1}), opt); !errors.Is(err, errInjected) {
		t.Fatalf("error %v, want the injected failure", err)
	}
	waitGoroutines(t, "failed solve", base)
}

// waitGoroutines fails unless the goroutine count falls back to base
// within 5 s (a goroutine that called Done may still be exiting).
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after a %s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
