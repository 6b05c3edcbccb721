package gateway

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestBucketBurstAndRefill(t *testing.T) {
	now := time.Unix(0, 0)
	b := newBucket(2, 3, now) // 2 tokens/s, burst 3, starts full

	for i := 0; i < 3; i++ {
		if _, ok := b.take(now); !ok {
			t.Fatalf("take %d within burst refused", i)
		}
	}
	wait, ok := b.take(now)
	if ok {
		t.Fatal("take beyond burst admitted")
	}
	// Empty bucket at 2 tokens/s → next token in 0.5s.
	if wait <= 0 || wait > 500*time.Millisecond {
		t.Fatalf("wait = %v, want (0, 500ms]", wait)
	}

	// After one second, 2 tokens accrued.
	now = now.Add(time.Second)
	for i := 0; i < 2; i++ {
		if _, ok := b.take(now); !ok {
			t.Fatalf("take %d after refill refused", i)
		}
	}
	if _, ok := b.take(now); ok {
		t.Fatal("third take after a 2-token refill admitted")
	}

	// Refill never exceeds burst.
	now = now.Add(time.Hour)
	for i := 0; i < 3; i++ {
		if _, ok := b.take(now); !ok {
			t.Fatalf("take %d after long idle refused", i)
		}
	}
	if _, ok := b.take(now); ok {
		t.Fatal("bucket refilled past burst")
	}
}

func TestStaticValidator(t *testing.T) {
	v, err := NewStaticValidator([]Tenant{
		{ID: "acme", Key: "acme-secret-1"},
		{ID: "globex", Key: "globex-secret-1", RatePerSec: 5, MaxActive: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := v.IDs(); len(got) != 2 || got[0] != "acme" || got[1] != "globex" {
		t.Fatalf("IDs = %v", got)
	}
	if tn, ok := v.Validate("globex-secret-1"); !ok || tn.ID != "globex" || tn.MaxActive != 2 {
		t.Fatalf("Validate(good key) = %+v, %v", tn, ok)
	}
	if _, ok := v.Validate("acme-secret-2"); ok {
		t.Fatal("Validate admitted a wrong key")
	}
	if _, ok := v.Validate(""); ok {
		t.Fatal("Validate admitted the empty key")
	}
}

func TestStaticValidatorRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name    string
		tenants []Tenant
	}{
		{"empty", nil},
		{"missing id", []Tenant{{Key: "key-long-enough"}}},
		{"uppercase id", []Tenant{{ID: "Acme", Key: "key-long-enough"}}},
		{"short key", []Tenant{{ID: "acme", Key: "short"}}},
		{"negative limit", []Tenant{{ID: "acme", Key: "key-long-enough", MaxActive: -1}}},
		{"dup id", []Tenant{
			{ID: "acme", Key: "key-long-enough"},
			{ID: "acme", Key: "other-long-key"},
		}},
		{"dup key", []Tenant{
			{ID: "acme", Key: "key-long-enough"},
			{ID: "globex", Key: "key-long-enough"},
		}},
	}
	for _, c := range cases {
		if _, err := NewStaticValidator(c.tenants); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestLoadTenantsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	doc := `{"tenants": [
  {"id": "acme", "key": "acme-secret-1", "rate_per_sec": 50, "burst": 100, "max_active": 8}
]}`
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	v, err := LoadTenantsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tn, ok := v.Validate("acme-secret-1")
	if !ok || tn.ID != "acme" || tn.RatePerSec != 50 || tn.Burst != 100 || tn.MaxActive != 8 {
		t.Fatalf("loaded tenant = %+v, %v", tn, ok)
	}

	// Unknown fields are config typos, not extensions.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"tenants": [{"id": "a1", "key": "key-long-enough", "rate": 5}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTenantsFile(bad); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := LoadTenantsFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// newTestGateway wires a gateway with a controllable clock in front of
// a handler that records whether (and as whom) the request got through.
func newTestGateway(t *testing.T, tenants []Tenant) (*Gateway, *time.Time, http.Handler, *string) {
	t.Helper()
	v, err := NewStaticValidator(tenants)
	if err != nil {
		t.Fatal(err)
	}
	g := New(v)
	clock := time.Unix(0, 0)
	g.now = func() time.Time { return clock }
	var sawTenant string
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawTenant = TenantID(r.Context())
		w.WriteHeader(http.StatusOK)
	})
	return g, &clock, g.Wrap(next), &sawTenant
}

func do(h http.Handler, method, path, key string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, nil)
	if key != "" {
		r.Header.Set("Authorization", "Bearer "+key)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

func TestWrapAuth(t *testing.T) {
	g, _, h, sawTenant := newTestGateway(t, []Tenant{{ID: "acme", Key: "acme-secret-1"}})

	// Missing key → 401 with a challenge.
	w := do(h, http.MethodPost, "/v1/solve", "")
	if w.Code != http.StatusUnauthorized {
		t.Fatalf("missing key: %d", w.Code)
	}
	if !strings.Contains(w.Header().Get("WWW-Authenticate"), "Bearer") {
		t.Fatalf("missing WWW-Authenticate: %q", w.Header().Get("WWW-Authenticate"))
	}
	// Wrong key → 401 flagged invalid_token.
	w = do(h, http.MethodPost, "/v1/solve", "wrong-key-here")
	if w.Code != http.StatusUnauthorized || !strings.Contains(w.Header().Get("WWW-Authenticate"), "invalid_token") {
		t.Fatalf("wrong key: %d %q", w.Code, w.Header().Get("WWW-Authenticate"))
	}
	if got := g.Metrics().Unauthorized.Load(); got != 2 {
		t.Fatalf("unauthorized counter = %d, want 2", got)
	}

	// Right key → through, tenant attached.
	w = do(h, http.MethodPost, "/v1/solve", "acme-secret-1")
	if w.Code != http.StatusOK || *sawTenant != "acme" {
		t.Fatalf("good key: %d tenant %q", w.Code, *sawTenant)
	}

	// Operational endpoints need no credentials.
	*sawTenant = "unset"
	for _, path := range []string{"/healthz", "/metrics"} {
		if w := do(h, http.MethodGet, path, ""); w.Code != http.StatusOK {
			t.Fatalf("%s: %d", path, w.Code)
		}
	}
	if *sawTenant != "" {
		t.Fatalf("passthrough request carried tenant %q", *sawTenant)
	}
}

func TestWrapRateLimit(t *testing.T) {
	_, clock, h, _ := newTestGateway(t, []Tenant{
		{ID: "acme", Key: "acme-secret-1", RatePerSec: 1, Burst: 2},
		{ID: "globex", Key: "globex-secret-1"},
	})

	// Burst admits 2, the third is throttled with a Retry-After.
	for i := 0; i < 2; i++ {
		if w := do(h, http.MethodPost, "/v1/solve", "acme-secret-1"); w.Code != http.StatusOK {
			t.Fatalf("burst post %d: %d", i, w.Code)
		}
	}
	w := do(h, http.MethodPost, "/v1/solve", "acme-secret-1")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst post: %d", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("throttled response missing Retry-After")
	}

	// GET polls are never throttled, even with the bucket dry.
	if w := do(h, http.MethodGet, "/v1/jobs/j1", "acme-secret-1"); w.Code != http.StatusOK {
		t.Fatalf("GET while throttled: %d", w.Code)
	}
	// Another tenant's bucket is untouched; unlimited tenants never wait.
	if w := do(h, http.MethodPost, "/v1/solve", "globex-secret-1"); w.Code != http.StatusOK {
		t.Fatalf("other tenant: %d", w.Code)
	}
	// Tokens come back with time.
	*clock = clock.Add(time.Second)
	if w := do(h, http.MethodPost, "/v1/solve", "acme-secret-1"); w.Code != http.StatusOK {
		t.Fatalf("post after refill: %d", w.Code)
	}
}

func TestMetricsRenderZeroFilled(t *testing.T) {
	m := NewMetrics([]string{"globex", "acme"})
	m.Request("acme")
	m.Throttled("acme")
	m.JobStarted("globex")
	var buf bytes.Buffer
	m.Render(&buf)
	out := buf.String()
	for _, want := range []string{
		`lpserved_tenant_requests_total{tenant="acme"} 1`,
		`lpserved_tenant_requests_total{tenant="globex"} 0`,
		`lpserved_tenant_throttled_total{tenant="acme"} 1`,
		`lpserved_tenant_throttled_total{tenant="globex"} 0`,
		`lpserved_tenant_active_jobs{tenant="globex"} 1`,
		`lpserved_tenant_active_jobs{tenant="acme"} 0`,
		"lpserved_tenant_unauthorized_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
