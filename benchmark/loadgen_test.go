package main

import (
	"sync"
	"testing"
	"time"
)

func TestScheduleIsSeededAndCoversBothFloors(t *testing.T) {
	mix := []classWeight{{"a", 3}, {"b", 1}}
	s1 := schedule(newRng(7, "t"), 100, 1, 0, mix)
	s2 := schedule(newRng(7, "t"), 100, 1, 0, mix)
	if len(s1) != len(s2) || len(s1) < 60 || len(s1) > 140 {
		t.Fatalf("schedules of %d and %d arrivals at 100/s for 1 s", len(s1), len(s2))
	}
	slots := map[string]int{}
	for i, a := range s1 {
		if a != s2[i] {
			t.Fatalf("arrival %d differs between equal seeds: %+v vs %+v", i, a, s2[i])
		}
		if a.Index != i || a.Slot != slots[a.Class] || (i > 0 && a.Due < s1[i-1].Due) {
			t.Fatalf("arrival %d out of order or mis-numbered: %+v", i, a)
		}
		slots[a.Class]++
	}
	if last := s1[len(s1)-1].Due; last >= time.Second {
		t.Errorf("last arrival due at %v, past the 1 s stretch", last)
	}
	if n := len(s1) / 4 * 4; slots["a"] < 3*n/4 || slots["a"] > 3*n/4+3 {
		t.Errorf("class mix %v over %d arrivals is not the exact 3:1 of the weights", slots, len(s1))
	}
	// The op floor extends the schedule past the time floor, and a longer
	// schedule starts with the shorter one (the digest relies on this).
	long := schedule(newRng(7, "t"), 100, 0.1, 50, mix)
	if len(long) != 50 {
		t.Fatalf("op floor 50 gave %d arrivals", len(long))
	}
	for i := range long[:10] {
		if long[i] != s1[i] {
			t.Fatalf("arrival %d depends on the schedule length", i)
		}
	}
}

// Open-loop accounting: ops are released at their due times whether or
// not earlier ones finished, and an op's latency runs from its due
// time, so waiting behind a stalled op is charged to the waiter.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const step, work = 20 * time.Millisecond, 50 * time.Millisecond
	arrivals := []arrival{{Index: 0, Due: 0}, {Index: 1, Due: step}, {Index: 2, Due: 2 * step}}
	var conn sync.Mutex // one connection: ops queue behind each other
	samples, maxInflight := runOpenLoop(arrivals, func(a arrival) any {
		conn.Lock()
		defer conn.Unlock()
		time.Sleep(work)
		return a.Index
	})
	if maxInflight != 3 {
		t.Errorf("max in flight = %d: the generator waited for completions (closed loop)", maxInflight)
	}
	const slack = 15 * time.Millisecond
	for i, s := range samples {
		if s.Out.(int) != i || s.Index != i {
			t.Fatalf("sample %d holds op %v", i, s.Out)
		}
		if s.Start < s.Due {
			t.Errorf("op %d released %v before it was due", i, s.Due-s.Start)
		}
		if late := s.Start - s.Due; late > slack || s.lateMS() != ms(late) {
			t.Errorf("op %d: generator ran %v late", i, late)
		}
		// Op i finishes after (i+1) units of work from t=0; its latency is
		// measured from its own due time, so it includes the queueing.
		want := time.Duration(i+1)*work - s.Due
		got := time.Duration(s.latencyMS() * float64(time.Millisecond))
		if got < want || got > want+time.Duration(i+1)*slack {
			t.Errorf("op %d latency %v, want about %v (from the due time)", i, got, want)
		}
	}
}
