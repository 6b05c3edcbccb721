// Package gateway is lpserved's multi-tenant front door: bearer/API-
// key authentication and per-tenant rate limits and queue quotas. It
// is deliberately server-agnostic — a handler-chain middleware
// plus a typed context value — so internal/server stays the only place
// that knows what the requests mean, and the gateway stays the only
// place that knows who is making them.
//
// With no gateway configured (lpserved without -tenants) nothing in
// this package runs: requests carry no tenant, every namespace is the
// empty one, and the service behaves exactly as before.
package gateway

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Tenant is one authenticated client of the service: an identity, its
// API key, and the limits admission applies to it. The zero limits
// mean "unlimited" so a tenants file only states what it wants to
// bound.
type Tenant struct {
	// ID names the tenant. It is the metric label, the instance/job
	// namespace, and what doctor findings print — lowercase
	// letters, digits and dashes only.
	ID string `json:"id"`
	// Key is the bearer token presented as `Authorization: Bearer
	// <key>`.
	Key string `json:"key"`
	// RatePerSec is the sustained mutating-request rate (token-bucket
	// refill; 0 = unlimited). GET polls are never rate-limited — a
	// client waiting on a job must not be throttled into missing it.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the token-bucket depth (0 = max(1, ceil(RatePerSec))).
	Burst int `json:"burst,omitempty"`
	// MaxActive bounds the tenant's jobs queued or running at once —
	// the queue quota (0 = unlimited). Breach answers 429 +
	// Retry-After, distinct from the global queue-full 503.
	MaxActive int `json:"max_active,omitempty"`
}

// burst returns the effective token-bucket depth.
func (t *Tenant) burst() float64 {
	if t.Burst > 0 {
		return float64(t.Burst)
	}
	if t.RatePerSec >= 1 {
		return t.RatePerSec
	}
	return 1
}

// Validator authenticates an API key to a tenant. The static
// file-loaded implementation is below; anything else (an OIDC
// verifier, a secrets service) plugs in here without the gateway or
// the server changing.
type Validator interface {
	// Validate resolves a bearer key to its tenant; false means the
	// key is unknown and the request is refused 401.
	Validate(key string) (*Tenant, bool)
	// IDs lists every known tenant ID, sorted — the metric universe,
	// so per-tenant series exist (zeroed) from the first scrape.
	IDs() []string
}

// StaticValidator is the -tenants file implementation: a fixed key →
// tenant table, immutable after load.
type StaticValidator struct {
	byKey map[string]*Tenant
	ids   []string
}

// NewStaticValidator builds a validator over the given tenants,
// rejecting duplicates and malformed entries.
func NewStaticValidator(tenants []Tenant) (*StaticValidator, error) {
	if len(tenants) == 0 {
		return nil, errors.New("gateway: no tenants configured")
	}
	v := &StaticValidator{byKey: make(map[string]*Tenant, len(tenants))}
	seen := make(map[string]bool, len(tenants))
	for i := range tenants {
		t := tenants[i]
		if err := checkTenant(&t); err != nil {
			return nil, fmt.Errorf("gateway: tenant %d: %w", i, err)
		}
		if seen[t.ID] {
			return nil, fmt.Errorf("gateway: duplicate tenant id %q", t.ID)
		}
		if _, dup := v.byKey[t.Key]; dup {
			return nil, fmt.Errorf("gateway: tenant %q reuses another tenant's key", t.ID)
		}
		seen[t.ID] = true
		v.byKey[t.Key] = &t
		v.ids = append(v.ids, t.ID)
	}
	sort.Strings(v.ids)
	return v, nil
}

// checkTenant validates one entry's shape.
func checkTenant(t *Tenant) error {
	if t.ID == "" {
		return errors.New("missing id")
	}
	for _, r := range t.ID {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return fmt.Errorf("id %q: want lowercase letters, digits and dashes", t.ID)
		}
	}
	if len(t.Key) < 8 {
		return fmt.Errorf("tenant %q: key must be at least 8 characters", t.ID)
	}
	if t.RatePerSec < 0 || t.Burst < 0 || t.MaxActive < 0 {
		return fmt.Errorf("tenant %q: limits must be ≥ 0", t.ID)
	}
	return nil
}

// Validate resolves key through the table. The map lookup is followed
// by a constant-time confirm so equal-length near-misses don't leak
// through comparison timing.
func (v *StaticValidator) Validate(key string) (*Tenant, bool) {
	t, ok := v.byKey[key]
	if !ok || subtle.ConstantTimeCompare([]byte(key), []byte(t.Key)) != 1 {
		return nil, false
	}
	return t, true
}

// IDs lists the configured tenant IDs, sorted.
func (v *StaticValidator) IDs() []string { return v.ids }

// tenantsFile is the -tenants JSON document.
type tenantsFile struct {
	Tenants []Tenant `json:"tenants"`
}

// LoadTenantsFile reads a -tenants config file:
//
//	{"tenants": [
//	  {"id": "acme", "key": "acme-secret-1",
//	   "rate_per_sec": 50, "burst": 100, "max_active": 8}
//	]}
func LoadTenantsFile(path string) (*StaticValidator, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("gateway: reading tenants file: %w", err)
	}
	var f tenantsFile
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("gateway: parsing tenants file %s: %w", path, err)
	}
	v, err := NewStaticValidator(f.Tenants)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return v, nil
}
