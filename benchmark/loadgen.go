package main

import (
	"math/rand/v2"
	"sync"
	"time"
)

// Open-loop load generation: ops are sent on a schedule fixed before
// the run, whether or not earlier ops have completed, and each op is
// timed from the moment it was due — so a stall is charged to every
// op that had to wait behind it, not hidden by a client that politely
// stopped sending.

// arrival is one scheduled op.
type arrival struct {
	Index int           // position in the schedule
	Due   time.Duration // offset from the segment start
	Class string
	Slot  int // how many arrivals of this class came before it
}

// classWeight is one traffic class and how many of every block of
// arrivals belong to it.
type classWeight struct {
	Class  string
	Weight int
}

// schedule draws Poisson arrivals (exponential gaps at the given rate)
// until both `seconds` and `minOps` are covered. Classes are dealt in
// shuffled blocks that each hold the mix exactly (weights are counts
// per block), so every run sees the same class shares and only the
// order is random: with a bimodal mix, a percent more or less of the
// cheap classes would move the median by itself. The same rng state
// gives the same schedule, and a longer schedule starts with the
// shorter one.
func schedule(rng *rand.Rand, rate, seconds float64, minOps int, mix []classWeight) []arrival {
	var block []string
	for _, c := range mix {
		for i := 0; i < c.Weight; i++ {
			block = append(block, c.Class)
		}
	}
	var out []arrival
	slots := map[string]int{}
	t := 0.0
	for {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, class := range block {
			t += rng.ExpFloat64() / rate
			if t >= seconds && len(out) >= minOps {
				return out
			}
			out = append(out, arrival{Index: len(out), Due: time.Duration(t * float64(time.Second)), Class: class, Slot: slots[class]})
			slots[class]++
		}
	}
}

// openSample is one op of an open-loop segment. All offsets are from
// the segment start.
type openSample struct {
	arrival
	Start time.Duration // when the generator actually released it
	End   time.Duration // when its last response arrived
	Out   any           // whatever do returned
}

// latencyMS is the caller-observed op time, from the due time.
func (s openSample) latencyMS() float64 { return ms(s.End - s.Due) }

// lateMS is how late the generator itself ran for this op.
func (s openSample) lateMS() float64 { return ms(s.Start - s.Due) }

// runOpenLoop releases each arrival at its due time on its own
// goroutine (never early; late only if the generator itself fell
// behind) and waits for all of them. It returns the samples in
// schedule order and the largest number of ops in flight at once.
func runOpenLoop(arrivals []arrival, do func(arrival) any) ([]openSample, int) {
	samples := make([]openSample, len(arrivals))
	var (
		wg                    sync.WaitGroup
		mu                    sync.Mutex
		inflight, maxInflight int
	)
	t0 := time.Now()
	for i, a := range arrivals {
		if d := a.Due - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			inflight++
			maxInflight = max(maxInflight, inflight)
			mu.Unlock()
			s := openSample{arrival: a, Start: time.Since(t0)}
			s.Out = do(a)
			s.End = time.Since(t0)
			samples[i] = s
			mu.Lock()
			inflight--
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, maxInflight
}
