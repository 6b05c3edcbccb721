// Command lpserved serves the lowdimlp solvers over HTTP/JSON: solve
// jobs for every problem kind in the model registry (LP, hard-margin
// SVM, minimum enclosing ball, smallest enclosing annulus, in the
// ram, stream, coordinator or mpc model) run on a bounded worker pool
// with a job queue, an LRU result cache, and health/metrics
// endpoints.
//
// Usage:
//
//	lpserved [-addr :8080] [-pool N] [-cache N] [-max-body BYTES]
//	         [-workers host1,host2,...] [-tenants FILE] [-grace D] [-pprof]
//	lpserved -worker shard.lds [-addr :8081]
//	         [-register FRONTEND] [-advertise URL] [-grace D] [-pprof]
//
// The job queue holds 4 jobs per pool worker, the warm-start basis
// cache 256 bases and the /v1/traces ring 128 traces; chunk uploads
// idle for 10 minutes and worker protocol sessions idle for 5 are
// reclaimed, and a registered worker silent for 15 s is marked down.
// These are constants, not flags (DESIGN.md §3).
//
// Endpoints (see internal/server for the wire format):
//
//	POST /v1/solve                synchronous solve
//	POST /v1/jobs                 enqueue; poll GET /v1/jobs/{id}
//	GET  /v1/models               registered kinds + backends
//	POST /v1/instances            chunk-upload large instances
//	POST /v1/instances/{id}/rows  append a batch
//	GET  /v1/instances            list open uploads (operator view)
//	DELETE /v1/instances/{id}     drop an upload
//	GET  /v1/traces               recent solve traces (ring, newest first)
//	POST /v1/fleet/register       worker registration + heartbeat
//	POST /v1/fleet/deregister     clean worker departure
//	POST /v1/fleet/drain          exclude a worker from new solves
//	GET  /v1/fleet                fleet membership, epoch, change count
//	GET  /healthz                 liveness
//	GET  /metrics                 Prometheus-style metrics
//
// Solve requests carrying "trace": true (or ?trace=1 on the
// query-string form) return a span-level trace of the solve inline in
// the job status; every captured trace also lands in the /v1/traces
// ring. Tracing never changes the answer or the metered bits
// (DESIGN.md §10).
//
// Idle chunk uploads are reclaimed automatically, so abandoned
// uploads cannot wedge the slot limit.
//
// # Warm starts and coalescing
//
// Every job walks one road: result-cache lookup, then in-flight
// coalescing (an identical request already running is waited for and
// its outcome copied, not re-solved), then a warm start, then the
// solve. Solved bases are kept in an LRU keyed by instance and seed; a
// repeat solve (or a tuning-knob overlay of one) re-verifies the
// cached basis in one scan and warm-starts instead of re-solving. A
// full queue answers 503 with a Retry-After estimate. See DESIGN.md
// §3.
//
// Chunk appends may be binary: POST the LDSET1 form of a batch (what
// `lpsolve -convert` writes) with Content-Type application/octet-stream
// and the rows are ingested with no JSON float parsing. Uploads live
// in memory until their solve; inputs too large for that are solved
// out-of-core from dataset files (`lpsolve`, multi-pass streaming) or
// by a worker fleet holding one shard per process (below).
//
// # Cluster mode
//
// With -worker FILE the process runs in worker mode instead: it owns
// the given LDSET1 dataset shard (memory-mapped when the host allows,
// never materialized) and answers the coordinator protocol's binary
// frames on POST /v1/worker/step (plus GET /v1/worker/info and
// /healthz). A fleet of k workers — one per shard of an `lpsolve
// -convert -shards k` dataset — jointly solves the instance when a
// coordinator drives them: either `lpsolve -workers host1,...,hostk`
// or a front-end lpserved started with -workers, which then serves
// requests carrying "fleet": true by running the two-round protocol
// across the worker processes. Same seed, same answer, same metered
// bits as the in-process coordinator (see DESIGN.md §8).
//
// The solver pool size flag is -pool (it was -workers before worker
// fleets existed).
//
// # Elastic fleet
//
// The frontend's -workers list is just the static seed of a worker
// registry. Workers started with -register FRONTEND announce
// themselves dynamically (re-registering every third of the
// registry's heartbeat horizon as a heartbeat; -advertise overrides the
// dialable URL they announce, which defaults to the host's name plus
// the -addr port). A fleet solve runs on the live membership at the
// moment it begins; a worker that dies mid-solve is marked down and
// the solve retries from the start of the round on the survivors —
// bit-identical to a clean run on that membership, with the burned
// rounds, bits and messages folded into the final stats and counted
// by the "retries" stat. SIGTERM on a worker drains: it refuses new
// protocol sessions, deregisters, finishes in-flight rounds within
// -grace, and only then closes its listener. GET /v1/fleet (and the
// lpserved_fleet_* metric families) expose membership, epoch and
// retry counts; `lpstat doctor` names workers that went down or are
// draining. See DESIGN.md §9.
//
// # Multi-tenant gateway
//
// -tenants FILE turns on the gateway: every /v1/ request must present
// `Authorization: Bearer <key>` for a key listed in FILE, a JSON
// document of per-tenant identities and limits:
//
//	{"tenants": [
//	  {"id": "acme", "key": "acme-secret-1",
//	   "rate_per_sec": 50, "burst": 100, "max_active": 8}
//	]}
//
// Authenticated tenants live in isolated namespaces — chunk uploads,
// jobs and traces belonging to one tenant are invisible (404) to every
// other. rate_per_sec/burst token-bucket mutating requests;
// max_active caps a tenant's queued+running jobs. Both refusals are
// 429 + Retry-After, distinct from the queue-full 503. /healthz and /metrics stay unauthenticated so
// probes and scrapes keep working; per-tenant lpserved_tenant_*
// families appear on /metrics (and the lpstat board). Without
// -tenants the service is open, exactly as before.
//
// # Profiling
//
// -pprof (off by default) mounts the standard net/http/pprof
// endpoints under /debug/pprof/ on the same listener, in both
// frontend and worker mode. The endpoints expose heap, CPU and
// goroutine profiles of the live process; leave the flag off on
// deployments reachable by untrusted clients.
//
// Example:
//
//	curl -s localhost:8080/v1/solve -d '{
//	  "kind": "lp", "model": "stream", "dim": 2,
//	  "objective": [1, 1],
//	  "rows": [[-1, 0, -1], [0, -1, -2]],
//	  "options": {"r": 2, "seed": 7}
//	}'
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// queued jobs drain, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"lowdimlp/internal/comm/httptransport"
	"lowdimlp/internal/comm/registry"
	"lowdimlp/internal/gateway"
	"lowdimlp/internal/server"
)

// gcPercent is the frontend's GOGC unless the environment sets one. Its
// live heap is a few MB, so at the default 100 it collects every
// request or two. Seidel's workspace free list used to keep up to 16 MB
// of 60 000-row workspaces alive, which raised the heap goal as a side
// effect; with lp's large solve a pivot loop over a sample, the goal is
// set here instead (DESIGN.md §3). A worker runs no basis solve and
// keeps Go's default.
const gcPercent = 300

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		pool       = flag.Int("pool", 0, "solver pool size (0 = GOMAXPROCS)")
		cache      = flag.Int("cache", 256, "result-cache capacity (-1 disables)")
		maxBody    = flag.Int64("max-body", 64<<20, "max request body bytes")
		grace      = flag.Duration("grace", 30*time.Second, "shutdown drain timeout")
		workerData = flag.String("worker", "", "run in worker mode, owning this LDSET1 dataset shard")
		register   = flag.String("register", "", "worker mode: frontend base URL to register with and heartbeat (elastic fleet)")
		advertise  = flag.String("advertise", "", "worker mode: base URL the frontend should dial for this worker (default http://<hostname><-addr port>)")
		fleet      = flag.String("workers", "", "comma-separated worker base URLs serving \"fleet\": true solves (worker i = site i)")
		tenants    = flag.String("tenants", "", "tenants JSON file; enables bearer-key auth, per-tenant limits and namespaces")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof endpoints under /debug/pprof/")
	)
	flag.Parse()

	if *workerData != "" {
		runWorker(*workerData, *addr, *register, *advertise, *grace, *pprofOn)
		return
	}
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}

	var gw *gateway.Gateway
	if *tenants != "" {
		v, err := gateway.LoadTenantsFile(*tenants)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lpserved:", err)
			os.Exit(1)
		}
		gw = gateway.New(v)
		log.Printf("lpserved: gateway on: %d tenant(s) from %s", len(v.IDs()), *tenants)
	}

	srv := server.New(server.Config{
		Workers:      *pool,
		CacheSize:    *cache,
		MaxBodyBytes: *maxBody,
		FleetWorkers: httptransport.SplitList(*fleet),
		Gateway:      gw,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           withPprof(srv.Handler(), *pprofOn),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("lpserved: listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("lpserved: %v, shutting down (grace %v)", sig, *grace)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "lpserved:", err)
		os.Exit(1)
	}

	// Each shutdown phase gets its own grace window: a slow HTTP
	// drain (e.g. an idle keep-alive client) must not eat the pool's
	// budget and turn a clean drain into a spurious exit 1.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), *grace)
	if err := httpSrv.Shutdown(httpCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("lpserved: http shutdown: %v", err)
	}
	cancelHTTP()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *grace)
	defer cancelDrain()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("lpserved: pool drain: %v", err)
		os.Exit(1)
	}
	log.Printf("lpserved: bye")
}

// withPprof mounts the net/http/pprof endpoints next to h when the
// -pprof flag is set; otherwise h serves unwrapped. The profiling
// routes live on the service listener on purpose: a separate debug
// port would need its own lifecycle, and the flag is opt-in.
func withPprof(h http.Handler, on bool) http.Handler {
	if !on {
		return h
	}
	mux := http.NewServeMux()
	mux.Handle("/", h)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// advertiseURL picks the base URL the frontend should dial for this
// worker: the -advertise flag verbatim, or http://<hostname>:<port>
// derived from -addr (the container hostname is what a compose fleet's
// frontend can reach; localhost would point the frontend at itself).
func advertiseURL(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	host, _ := os.Hostname()
	if host == "" {
		host = "localhost"
	}
	if i := strings.LastIndex(addr, ":"); i >= 0 {
		return "http://" + host + addr[i:]
	}
	return "http://" + host
}

// runWorker is worker mode: own one dataset shard, answer protocol
// frames until signalled. With -register the worker announces itself
// to the frontend's fleet registry and heartbeats until shutdown;
// shutdown then drains in order — refuse new protocol sessions, leave
// the registry, finish in-flight rounds — before the listener closes,
// so a coordinator mid-solve sees either a completed exchange or a
// typed refusal, never a vanished peer.
func runWorker(dataPath, addr, register, advertise string, grace time.Duration, pprofOn bool) {
	w, err := server.NewWorker(server.WorkerConfig{DataPath: dataPath})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lpserved:", err)
		os.Exit(1)
	}
	info := w.Info()
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           withPprof(w.Handler(), pprofOn),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("lpserved: worker for %s (kind=%s dim=%d rows=%d) listening on %s",
			dataPath, info.Kind, info.Dim, info.Rows, addr)
		errc <- httpSrv.ListenAndServe()
	}()

	var reg *registry.Client
	hbCtx, hbCancel := context.WithCancel(context.Background())
	defer hbCancel()
	if register != "" {
		reg = &registry.Client{
			Frontend: register,
			Self:     advertiseURL(advertise, addr),
			Kind:     info.Kind, Dim: info.Dim, Rows: info.Rows,
		}
		go reg.Heartbeat(hbCtx, log.Printf)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("lpserved: worker: %v, draining (grace %v)", sig, grace)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "lpserved:", err)
		os.Exit(1)
	}

	// Shutdown order matters: drain-refusal first (new Begins get the
	// typed 503), then leave the registry (so the frontend stops
	// handing this worker to fresh solves), then wait for in-flight
	// sessions, and only then close the listener.
	w.StartDrain()
	hbCancel()
	if reg != nil {
		dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := reg.Deregister(dctx); err != nil {
			log.Printf("lpserved: worker deregister: %v", err)
		}
		dcancel()
	}
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if left := w.DrainAndWait(ctx); left > 0 {
		log.Printf("lpserved: worker: drain timed out with %d session(s) still open", left)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("lpserved: worker http shutdown: %v", err)
	}
	if err := w.Close(); err != nil {
		log.Printf("lpserved: worker close: %v", err)
	}
	log.Printf("lpserved: worker bye")
}
