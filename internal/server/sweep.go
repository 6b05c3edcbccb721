package server

import "time"

// sweepInterval derives a TTL sweeper's tick period from the TTL it
// enforces: a quarter of the TTL, clamped to [1s, 1min]. The floor
// keeps a small TTL (sub-second TTLs are legitimate in tests and
// aggressive deployments) from spinning the sweeper hot; the ceiling
// keeps a very large TTL from letting reclaimable state linger for
// hours past its deadline. Every sweeper in the package derives its
// tick from here: the frontend's upload and fleet-registry sweepers
// and the worker's session sweeper.
func sweepInterval(ttl time.Duration) time.Duration {
	interval := ttl / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > time.Minute {
		interval = time.Minute
	}
	return interval
}
