package registry

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for TTL tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newClocked(ttl time.Duration) (*Registry, *fakeClock) {
	r := New(ttl)
	c := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	r.SetClock(c.now)
	return r, c
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"host:8080":         "http://host:8080",
		"http://host:8080/": "http://host:8080",
		" https://h:1/ ":    "https://h:1",
		"":                  "",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSeedStaticKeepsFlagOrder(t *testing.T) {
	r := New(0)
	r.SeedStatic([]string{"b:1", "a:2", "b:1"}) // dup collapses
	want := []string{"http://b:1", "http://a:2"}
	if got := r.LiveWorkers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("LiveWorkers = %v, want flag order %v", got, want)
	}
	// Seeding is the deployment baseline, not a membership change.
	if r.Epoch() != 0 || r.Changes() != 0 {
		t.Fatalf("epoch/changes = %d/%d after static seed, want 0/0", r.Epoch(), r.Changes())
	}
}

func TestRegisterHeartbeatAndRevival(t *testing.T) {
	r, _ := newClocked(time.Second)
	e1, err := r.Register("w1:1", "cube", 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	// A plain heartbeat of a live member must not bump the epoch.
	e2, err := r.Register("w1:1", "cube", 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatalf("heartbeat bumped epoch %d -> %d", e1, e2)
	}
	// Failure then re-register revives, bumping twice more.
	r.ReportFailure("w1:1", errors.New("boom"))
	if got := r.LiveWorkers(); len(got) != 0 {
		t.Fatalf("live after failure = %v, want none", got)
	}
	e3, err := r.Register("w1:1", "cube", 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if e3 != e2+2 {
		t.Fatalf("epoch after fail+revive = %d, want %d", e3, e2+2)
	}
	m, _, _ := r.Snapshot()
	if m[0].LastErr != "" {
		t.Fatalf("revived member keeps stale LastErr %q", m[0].LastErr)
	}
}

func TestRegisterRejectsMismatchedShard(t *testing.T) {
	r := New(0)
	if _, err := r.Register("w1:1", "cube", 3, 100); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("w2:1", "cube", 4, 100); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := r.Register("w2:1", "ball", 3, 100); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	// Same shard identity is fine.
	if _, err := r.Register("w2:1", "cube", 3, 50); err != nil {
		t.Fatalf("matching shard rejected: %v", err)
	}
	// Once the only live holder of the kind is down, a different kind
	// may register (fresh instance after redeploy).
	r.ReportFailure("w1:1", nil)
	r.ReportFailure("w2:1", nil)
	if _, err := r.Register("w3:1", "ball", 2, 10); err != nil {
		t.Fatalf("register after fleet died rejected: %v", err)
	}
}

func TestSweepExpiresOnlyDynamicMembers(t *testing.T) {
	r, c := newClocked(10 * time.Second)
	r.SeedStatic([]string{"static:1"})
	if _, err := r.Register("dyn:1", "cube", 2, 5); err != nil {
		t.Fatal(err)
	}
	c.advance(9 * time.Second)
	if n := r.Sweep(); n != 0 {
		t.Fatalf("swept %d members before TTL", n)
	}
	c.advance(2 * time.Second)
	if n := r.Sweep(); n != 1 {
		t.Fatalf("swept %d members after TTL, want 1", n)
	}
	want := []string{"http://static:1"}
	if got := r.LiveWorkers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("live after sweep = %v, want %v", got, want)
	}
	down := r.DownMembers()
	if down["http://dyn:1"] == "" {
		t.Fatalf("down member has no recorded reason: %v", down)
	}
	// A late heartbeat revives it.
	if _, err := r.Register("dyn:1", "cube", 2, 5); err != nil {
		t.Fatal(err)
	}
	if got := r.LiveWorkers(); len(got) != 2 {
		t.Fatalf("live after revival = %v, want 2", got)
	}
}

func TestDrainExcludesFromSolvesAndDeregisterRemoves(t *testing.T) {
	r := New(0)
	r.SeedStatic([]string{"w1:1", "w2:1"})
	if !r.Drain("w2:1") {
		t.Fatal("Drain returned false for a live member")
	}
	if r.Drain("w2:1") {
		t.Fatal("double drain reported a change")
	}
	want := []string{"http://w1:1"}
	if got := r.LiveWorkers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("live with one draining = %v, want %v", got, want)
	}
	live, draining, down := r.Counts()
	if live != 1 || draining != 1 || down != 0 {
		t.Fatalf("counts = %d/%d/%d, want 1/1/0", live, draining, down)
	}
	if !r.Deregister("w2:1") {
		t.Fatal("Deregister returned false for a member")
	}
	if r.Deregister("w2:1") {
		t.Fatal("double deregister reported a change")
	}
	if ms, _, _ := r.Snapshot(); len(ms) != 1 {
		t.Fatalf("snapshot after deregister = %v, want 1 member", ms)
	}
	// A drained-then-reregistered member goes back to live.
	r.Drain("w1:1")
	if _, err := r.Register("w1:1", "", 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.LiveWorkers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("live after undrain = %v, want %v", got, want)
	}
}

func TestChangesIsMonotone(t *testing.T) {
	r := New(0)
	r.SeedStatic([]string{"w1:1"})
	before := r.Changes()
	r.ReportFailure("w1:1", nil)
	r.Register("w1:1", "", 0, 0)
	r.Deregister("w1:1")
	if got := r.Changes(); got != before+3 {
		t.Fatalf("changes = %d, want %d", got, before+3)
	}
	if got := r.sortedURLs(); len(got) != 0 {
		t.Fatalf("members after final deregister = %v", got)
	}
}
