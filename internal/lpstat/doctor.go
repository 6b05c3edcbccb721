package lpstat

import (
	"fmt"
	"sort"

	"lowdimlp/internal/comm"
)

// sortedKeys returns the map's keys in sorted order so findings come
// out deterministically.
func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Severity orders findings: errors break solves now, warnings will,
// ok means the fleet is healthy.
type Severity int

const (
	SevOK Severity = iota
	SevWarn
	SevError
)

// String renders the severity for the CLI.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "ERROR"
	case SevWarn:
		return "WARN"
	default:
		return "OK"
	}
}

// Finding is one doctor diagnosis: an observation mapped through the
// rule table to plain language and a suggested fix.
type Finding struct {
	Severity  Severity
	Rule      string // stable rule name (DESIGN.md §10 table)
	Target    string // "frontend" or "worker N (url)"
	Diagnosis string
	Fix       string
}

// Diagnose runs the heuristic rule table over one fleet snapshot.
// Findings come back errors first; a healthy fleet yields exactly one
// SevOK finding so "no news" is distinguishable from "no check ran".
func Diagnose(f *Fleet) []Finding {
	var out []Finding
	add := func(sev Severity, rule, target, diagnosis, fix string) {
		out = append(out, Finding{Severity: sev, Rule: rule, Target: target, Diagnosis: diagnosis, Fix: fix})
	}

	if fe := f.Frontend; fe != nil {
		if !fe.Reachable {
			add(SevError, "frontend-unreachable", "frontend",
				fmt.Sprintf("the frontend at %s is not answering (%s: %s)", fe.URL, fe.ErrClass, fe.Err),
				"check that lpserved is running and the address/port is right")
		} else {
			if fe.JobsFailed > 0 && fe.JobsDone == 0 {
				add(SevError, "frontend-all-jobs-failing", "frontend",
					fmt.Sprintf("every finished job failed (%d failed, 0 done)", fe.JobsFailed),
					"inspect a failed job's error via GET /v1/jobs/{id}; if these are fleet solves, run lpstat doctor with -workers to probe the fleet")
			} else if fe.JobsFailed > 0 {
				add(SevWarn, "frontend-failed-jobs", "frontend",
					fmt.Sprintf("%d of %d finished jobs failed", fe.JobsFailed, fe.JobsFailed+fe.JobsDone),
					"inspect failed jobs via GET /v1/jobs/{id}")
			}
			if fe.JobsQueued > 0 {
				add(SevWarn, "frontend-queue-backlog", "frontend",
					fmt.Sprintf("%d jobs are waiting in the queue (%d running)", fe.JobsQueued, fe.JobsRunning),
					"the pool is saturated: raise -pool, or expect latency")
			}
			// Repeated-seed traffic that never warm-starts: either cached
			// bases keep failing re-verification (instance churn under
			// one digest), or the frontend has no basis cache at all
			// while a cache-miss-heavy workload hammers it. A current
			// lpserved always keeps one; older builds could switch it
			// off with -basis-cache -1.
			if fe.WarmHits == 0 && fe.WarmMisses >= 8 {
				add(SevWarn, "frontend-basis-cache-cold", "frontend",
					fmt.Sprintf("%d warm-start attempts all failed re-verification and 0 succeeded — cached bases never match the instance they are looked up for", fe.WarmMisses),
					"the same request digest is serving changing instance content; make sure clients pin generator seeds (and don't mutate uploaded rows between solves)")
			} else if fe.BasisEntries == 0 && fe.WarmHits == 0 && fe.WarmMisses == 0 &&
				fe.JobsDone >= 16 && fe.CacheHits == 0 && fe.CacheMisses >= 16 {
				add(SevWarn, "frontend-basis-cache-cold", "frontend",
					fmt.Sprintf("%d solves ran with no result-cache hits and an empty basis cache — repeat traffic is re-solving from scratch", fe.JobsDone),
					"this frontend runs with warm starts off, which only an older lpserved started with -basis-cache -1 can do; restart it without that flag, or on a current build, so repeated-seed requests warm-start instead of re-solving")
			}
			for class, n := range fe.FleetErrors {
				rule, diag, fix := fleetErrorRule(class, n)
				add(SevWarn, rule, "frontend", diag, fix)
			}
			// Per-tenant throttling: the gateway returned 429s against a
			// tenant's own rate/quota limits. One finding per tenant,
			// sorted, so the noisy tenant is named.
			for _, id := range sortedKeys(fe.TenantThrottled) {
				n := fe.TenantThrottled[id]
				if n == 0 {
					continue
				}
				add(SevWarn, "tenant-throttled", "tenant "+id,
					fmt.Sprintf("tenant %s was throttled %d times (429 + Retry-After) by its own rate limit or max_active quota — other tenants are unaffected", id, n),
					"if the traffic is legitimate, raise this tenant's rate_per_sec/burst/max_active in the -tenants file; otherwise the client should honor Retry-After and back off")
			}
			if fe.HasTenants && fe.Unauthorized > 0 {
				add(SevWarn, "tenant-unauthorized", "frontend",
					fmt.Sprintf("%d /v1 requests were rejected with 401 — missing or wrong API keys", fe.Unauthorized),
					"a client is using a stale or mistyped key; rotate or redistribute the keys in the -tenants file")
			}
			// Elastic-fleet rules. A solve retry means a worker was lost
			// mid-protocol and the run restarted from round start on the
			// survivors — the answer is still bit-identical to a clean run
			// on the final membership, but the burned round-trips are real.
			if fe.FleetRetries > 0 {
				add(SevWarn, "fleet-solve-retried", "frontend",
					fmt.Sprintf("%d fleet solves restarted from round start after losing a worker mid-protocol — results are bit-identical to a clean run on the surviving membership, but each retry burned up to one round-trip per site", fe.FleetRetries),
					"GET /v1/fleet (or the findings below) names the lost workers; restart or deregister them")
			}
			// Membership changes are only worth a finding when they name a
			// casualty: dynamic joins bump the change counter by design, so
			// the rule keys on members that are down — not on changes > 0.
			for _, m := range fe.FleetMembers {
				switch m.State {
				case "down":
					reason := m.LastErr
					if reason == "" {
						reason = "no recorded reason"
					}
					add(SevWarn, "fleet-membership-changed", "fleet worker "+m.URL,
						fmt.Sprintf("the fleet a solve runs on is not the fleet that was deployed: %s is down (%s) after %d membership changes", m.URL, reason, fe.FleetChanges),
						"restart the worker (it revives on its next registration) or deregister it (POST /v1/fleet/deregister) to silence this")
				case "draining":
					add(SevWarn, "worker-draining", "fleet worker "+m.URL,
						fmt.Sprintf("%s is draining — it finishes in-flight sessions but joins no new solves", m.URL),
						"expected during a rolling restart or scale-down; it deregisters when done, so this should clear on its own")
				}
			}
		}
	}

	// Fleet coherence: all reachable workers must hold shards of the
	// same kind and dimension, or the dial-time check fails every
	// fleet solve.
	kind, dim := "", 0
	for _, w := range f.Workers {
		if w.Reachable && w.Kind != "" {
			if kind == "" {
				kind, dim = w.Kind, w.Dim
			} else if w.Kind != kind || w.Dim != dim {
				add(SevError, "fleet-incoherent",
					fmt.Sprintf("worker %d (%s)", w.Site, w.URL),
					fmt.Sprintf("shard is %s/d=%d but the fleet started as %s/d=%d — fleet solves will refuse to dial",
						w.Kind, w.Dim, kind, dim),
					"point every worker at shards of the same converted dataset (lpsolve -convert -shards k)")
			}
		}
	}

	for _, w := range f.Workers {
		target := fmt.Sprintf("worker %d (%s)", w.Site, w.URL)
		if !w.Reachable {
			add(SevError, "worker-unreachable", target,
				fmt.Sprintf("site %d is not answering (%s: %s) — fleet solves will fail mid-round when the coordinator contacts it", w.Site, w.ErrClass, w.Err),
				"restart the worker (lpserved -worker shard.lds) or fix the address in -workers")
			continue
		}
		if !w.ProbeOK {
			switch w.ProbeClass {
			case comm.ClassProtocol:
				add(SevError, "worker-corrupt-frame", target,
					fmt.Sprintf("site %d answers HTTP but not the worker protocol (%s) — the coordinator will see corrupt frames", w.Site, w.ProbeErr),
					"something other than lpserved -worker is on this port, or a proxy is mangling bodies; restart the real worker there")
			default:
				add(SevError, "worker-step-unserved", target,
					fmt.Sprintf("site %d failed a live protocol probe (%s: %s)", w.Site, w.ProbeClass, w.ProbeErr),
					"check the worker's logs; its step endpoint is not serving")
			}
		}
		if w.SessionsExpired > 0 {
			add(SevWarn, "worker-session-expired", target,
				fmt.Sprintf("%d protocol sessions idled past the 5-minute session TTL and were reclaimed — a coordinator died mid-solve, or stalled that long between rounds; affected solves see session-expired errors", w.SessionsExpired),
				"find out why coordinators vanish or stall mid-protocol (their logs, their host's load)")
		}
		if w.FrameDecodeErrors > 0 {
			add(SevWarn, "worker-garbage-frames", target,
				fmt.Sprintf("%d request bodies failed the strict frame decode — something is POSTing garbage to this worker's step endpoint", w.FrameDecodeErrors),
				"find the client speaking the wrong protocol (a scraper? a load balancer health check?) and point it elsewhere")
		}
		if w.ProbeOK && w.StepErrors > 0 {
			add(SevWarn, "worker-step-errors", target,
				fmt.Sprintf("%d frames were refused after decoding (unknown/expired sessions, limits, step failures)", w.StepErrors),
				"correlate with coordinator-side errors; expired sessions point at the TTL, limits at too many concurrent solves")
		}
		if w.SessionsOpen >= 64 {
			add(SevWarn, "worker-sessions-saturated", target,
				fmt.Sprintf("%d protocol sessions are open — at the default limit new solves are refused", w.SessionsOpen),
				"coordinators are leaking sessions (crashing before FrameEnd?) or the fleet is genuinely oversubscribed")
		}
		// A directly-probed worker can also announce its own drain (the
		// lpserved_worker_draining gauge) — same rule name as the
		// registry-side view so operators grep one string.
		if w.Draining {
			add(SevWarn, "worker-draining", target,
				fmt.Sprintf("site %d is draining (%d sessions still open) — it refuses new protocol sessions", w.Site, w.SessionsOpen),
				"expected during a rolling restart or scale-down; fleet solves retry on the remaining workers")
		}
	}

	// Errors first, then warnings, preserving discovery order inside
	// each band (insertion sort keeps it dependency-free and stable).
	ordered := make([]Finding, 0, len(out))
	for _, sev := range []Severity{SevError, SevWarn} {
		for _, fd := range out {
			if fd.Severity == sev {
				ordered = append(ordered, fd)
			}
		}
	}
	if len(ordered) == 0 {
		target := "fleet"
		if f.Frontend != nil && len(f.Workers) == 0 {
			target = "frontend"
		}
		ordered = append(ordered, Finding{
			Severity: SevOK, Rule: "healthy", Target: target,
			Diagnosis: fmt.Sprintf("all checks passed (%d workers probed)", len(f.Workers)),
		})
	}
	return ordered
}

// fleetErrorRule maps a frontend-observed fleet exchange error class
// to its diagnosis — the coordinator-side mirror of the worker rules.
func fleetErrorRule(class string, n int64) (rule, diagnosis, fix string) {
	switch class {
	case comm.ClassUnreachable, comm.ClassTimeout:
		return "fleet-worker-died",
			fmt.Sprintf("%d fleet exchanges failed as %s — a worker died or dropped off the network mid-round", n, class),
			"run lpstat doctor with -workers to find which site is down, then restart it"
	case comm.ClassProtocol:
		return "fleet-corrupt-frames",
			fmt.Sprintf("%d fleet exchanges returned undecodable frames — a worker port is serving the wrong process or a proxy corrupts bodies", n),
			"probe each worker (lpstat doctor -workers …); the corrupt one fails the protocol probe"
	case comm.ClassSession:
		return "fleet-session-expired",
			fmt.Sprintf("%d fleet exchanges hit expired worker sessions — the gap between rounds outlasted the workers' 5-minute session TTL", n),
			"investigate what stalled the coordinator between rounds"
	default:
		return "fleet-exchange-errors",
			fmt.Sprintf("%d fleet exchanges failed with class %s", n, class),
			"check the frontend logs for the underlying errors"
	}
}
