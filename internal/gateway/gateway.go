package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ctxKey is the private context-key type for the tenant value.
type ctxKey struct{}

// WithTenant returns ctx carrying t.
func WithTenant(ctx context.Context, t *Tenant) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the authenticated tenant, or nil when the
// request did not pass through a gateway (auth disabled).
func FromContext(ctx context.Context) *Tenant {
	t, _ := ctx.Value(ctxKey{}).(*Tenant)
	return t
}

// TenantID returns the tenant's ID, or "" without a gateway. The empty
// string is the anonymous namespace every request lives in when auth
// is off — which is why tenant IDs themselves must be non-empty.
func TenantID(ctx context.Context) string {
	if t := FromContext(ctx); t != nil {
		return t.ID
	}
	return ""
}

// Gateway authenticates and rate-limits requests in front of the
// lpserved API. It is an http.Handler middleware: everything under
// /v1/ must present a valid bearer key and stay inside its tenant's
// rate limit; operational endpoints (/healthz, /metrics, /debug/...)
// pass through untouched so probes and scrapes need no credentials.
type Gateway struct {
	validator Validator
	metrics   *Metrics

	mu      sync.Mutex
	buckets map[string]*bucket

	// now is the clock, swappable in tests.
	now func() time.Time
}

// New builds a gateway over the given validator.
func New(v Validator) *Gateway {
	return &Gateway{
		validator: v,
		metrics:   NewMetrics(v.IDs()),
		buckets:   make(map[string]*bucket),
		now:       time.Now,
	}
}

// Metrics exposes the gateway's per-tenant counters so the server can
// render them into its /metrics exposition.
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// writeJSONError mirrors the server's error body shape so clients see
// one wire format regardless of which layer refused them.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// Wrap returns next guarded by authentication and rate limiting.
func (g *Gateway) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		// The fleet control plane is operator-side like /metrics and
		// /healthz, not tenant API surface: workers registering and
		// heartbeating hold no tenant keys, and membership is not
		// tenant-scoped data.
		if r.URL.Path == "/v1/fleet" || strings.HasPrefix(r.URL.Path, "/v1/fleet/") {
			next.ServeHTTP(w, r)
			return
		}
		key, ok := bearerKey(r)
		if !ok {
			g.metrics.Unauthorized.Add(1)
			w.Header().Set("WWW-Authenticate", `Bearer realm="lpserved"`)
			writeJSONError(w, http.StatusUnauthorized, "missing bearer token")
			return
		}
		t, ok := g.validator.Validate(key)
		if !ok {
			g.metrics.Unauthorized.Add(1)
			w.Header().Set("WWW-Authenticate", `Bearer realm="lpserved", error="invalid_token"`)
			writeJSONError(w, http.StatusUnauthorized, "invalid bearer token")
			return
		}
		g.metrics.Request(t.ID)
		// Rate-limit only mutating methods: a tenant polling its own
		// job status must never be throttled into missing the result.
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			if wait, ok := g.take(t); !ok {
				g.metrics.Throttled(t.ID)
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(wait)))
				writeJSONError(w, http.StatusTooManyRequests,
					fmt.Sprintf("tenant %s rate limit exceeded", t.ID))
				return
			}
		}
		next.ServeHTTP(w, r.WithContext(WithTenant(r.Context(), t)))
	})
}

// take consumes one token from t's bucket. On refusal it returns how
// long until the next token accrues.
func (g *Gateway) take(t *Tenant) (wait time.Duration, ok bool) {
	if t.RatePerSec <= 0 {
		return 0, true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	b := g.buckets[t.ID]
	if b == nil {
		b = newBucket(t.RatePerSec, t.burst(), g.now())
		g.buckets[t.ID] = b
	}
	return b.take(g.now())
}

// retryAfterSeconds rounds wait up to whole seconds through the
// shared RetryAfterSeconds clamp.
func retryAfterSeconds(wait time.Duration) int {
	return RetryAfterSeconds(wait.Seconds())
}

// RetryAfterSeconds is the single Retry-After producer for every
// backpressure answer in the serving stack — the gateway's tenant
// throttle, the frontend's tenant quota, full queue and instance-slot
// exhaustion. It
// rounds an estimated wait (in seconds) up to a whole second and
// clamps to [1, 60]: RFC 9110 gives `Retry-After: 0` no useful
// meaning (and a negative value is malformed), so zero, negative and
// NaN estimates all become 1, and an unbounded backlog estimate never
// tells a client to go away for more than a minute.
func RetryAfterSeconds(wait float64) int {
	if math.IsNaN(wait) {
		return 1
	}
	// Clamp before the float→int conversion: converting +Inf (or any
	// out-of-range float) to int is implementation-dependent in Go.
	if wait >= 60 {
		return 60
	}
	s := int(math.Ceil(wait))
	if s < 1 {
		s = 1
	}
	return s
}

// bearerKey extracts the key from `Authorization: Bearer <key>`.
func bearerKey(r *http.Request) (string, bool) {
	h := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(h) <= len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
		return "", false
	}
	return h[len(prefix):], true
}
