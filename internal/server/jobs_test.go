package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"

	"lowdimlp"
	"lowdimlp/internal/workload"
)

// concurrentCase is one job of the ≥16-way concurrency test: a
// request plus the in-RAM reference value its solution must match.
type concurrentCase struct {
	name string
	req  SolveRequest
	want float64 // reference scalar (lp value / svm norm² / meb radius)
	got  func(*SolveResult) float64
}

// scalarField reads a named scalar out of a rendered solution.
func scalarField(key string) func(*SolveResult) float64 {
	return func(r *SolveResult) float64 {
		v, _ := r.Scalar(key)
		return v
	}
}

// buildConcurrentCases crosses the three problem kinds with the three
// distributed models (plus ram) over two seed variants: 24 jobs,
// every one checked against the in-RAM reference solver.
func buildConcurrentCases(t *testing.T) []concurrentCase {
	t.Helper()
	models := []string{ModelRAM, ModelStream, ModelCoordinator, ModelMPC}
	var cases []concurrentCase
	for v := 0; v < 2; v++ {
		for i, model := range models {
			cases = append(cases, buildKindCases(t, model, uint64(100+10*v+i))...)
		}
	}
	if len(cases) < 16 {
		t.Fatalf("want ≥16 concurrent cases, built %d", len(cases))
	}
	return cases
}

// ramScalar solves inst on the in-memory reference backend and returns
// one scalar field of the answer: the oracle the served solves are
// checked against.
func ramScalar(t *testing.T, kind string, inst lowdimlp.Instance, seed uint64, key string) float64 {
	t.Helper()
	sol, _, err := lowdimlp.SolveInstance(kind, "ram", inst, lowdimlp.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := sol.Scalar(key)
	if !ok {
		t.Fatalf("%s reference has no %q field", kind, key)
	}
	return v
}

// buildKindCases returns one case per problem kind for the given
// model and seed.
func buildKindCases(t *testing.T, model string, seed uint64) []concurrentCase {
	t.Helper()
	var cases []concurrentCase
	{
		// LP: sphere family.
		prob, cons := workload.SphereLP(3, 1500, seed)
		rows := make([][]float64, len(cons))
		for j, c := range cons {
			rows[j] = append(append([]float64(nil), c.A...), c.B)
		}
		ref := ramScalar(t, "lp", lowdimlp.Instance{Dim: 3, Objective: prob.Objective, Rows: rows}, seed, "value")
		cases = append(cases, concurrentCase{
			name: "lp/" + model,
			req: SolveRequest{
				Kind: KindLP, Model: model, Dim: 3,
				Objective: prob.Objective, Rows: rows,
				Options: SolveOptions{R: 2, Seed: seed, K: 4, Parallel: model == ModelCoordinator},
			},
			want: ref,
			got:  scalarField("value"),
		})
		// SVM: separable family.
		exs, _ := workload.SeparableSVM(3, 1000, 0.5, seed)
		srows := make([][]float64, len(exs))
		for j, e := range exs {
			srows[j] = append(append([]float64(nil), e.X...), e.Y)
		}
		sref := ramScalar(t, "svm", lowdimlp.Instance{Dim: 3, Rows: srows}, 0, "norm2")
		cases = append(cases, concurrentCase{
			name: "svm/" + model,
			req: SolveRequest{
				Kind: KindSVM, Model: model, Dim: 3, Rows: srows,
				Options: SolveOptions{R: 2, Seed: seed, K: 4},
			},
			want: sref,
			got:  scalarField("norm2"),
		})
		// MEB: gaussian cloud.
		pts := workload.MEBCloud(workload.MEBGaussian, 3, 1200, seed)
		mrows := make([][]float64, len(pts))
		for j, p := range pts {
			mrows[j] = p
		}
		mref := ramScalar(t, "meb", lowdimlp.Instance{Dim: 3, Rows: mrows}, 0, "radius")
		cases = append(cases, concurrentCase{
			name: "meb/" + model,
			req: SolveRequest{
				Kind: KindMEB, Model: model, Dim: 3, Rows: mrows,
				Options: SolveOptions{R: 2, Seed: seed, K: 4},
			},
			want: mref,
			got:  scalarField("radius"),
		})
	}
	return cases
}

// TestConcurrentJobs submits all cases simultaneously through the
// HTTP API and asserts every job completes with the reference
// solution. Run with -race this doubles as the subsystem's data-race
// check.
func TestConcurrentJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	cases := buildConcurrentCases(t)

	var wg sync.WaitGroup
	errs := make(chan error, len(cases))
	for _, c := range cases {
		wg.Add(1)
		go func(c concurrentCase) {
			defer wg.Done()
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(c.req); err != nil {
				errs <- fmt.Errorf("%s: encode: %v", c.name, err)
				return
			}
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", &buf)
			if err != nil {
				errs <- fmt.Errorf("%s: post: %v", c.name, err)
				return
			}
			defer resp.Body.Close()
			var st JobStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				errs <- fmt.Errorf("%s: decode: %v", c.name, err)
				return
			}
			if resp.StatusCode != http.StatusOK || st.State != StateDone {
				errs <- fmt.Errorf("%s: status %d state %s error %q", c.name, resp.StatusCode, st.State, st.Error)
				return
			}
			if got := c.got(st.Result); math.Abs(got-c.want) > 1e-6 {
				errs <- fmt.Errorf("%s: got %v, reference %v", c.name, got, c.want)
				return
			}
			if c.req.Model != ModelRAM && st.Stats == nil {
				errs <- fmt.Errorf("%s: missing stats", c.name)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestConcurrentAsyncJobs stresses the queue path: the same ≥16 jobs
// submitted asynchronously in one burst, then all polled to
// completion.
func TestConcurrentAsyncJobs(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	cases := buildConcurrentCases(t)

	jobs := make([]*Job, len(cases))
	for i := range cases {
		req := cases[i].req
		j, err := s.manager.Submit(&req)
		if err != nil {
			t.Fatalf("%s: submit: %v", cases[i].name, err)
		}
		jobs[i] = j
	}
	for i, j := range jobs {
		<-j.Done
		st := j.Status()
		if st.State != StateDone {
			t.Errorf("%s: state %s error %q", cases[i].name, st.State, st.Error)
			continue
		}
		if got := cases[i].got(st.Result); math.Abs(got-cases[i].want) > 1e-6 {
			t.Errorf("%s: got %v, reference %v", cases[i].name, got, cases[i].want)
		}
	}
}
