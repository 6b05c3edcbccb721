package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"lowdimlp"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
	"lowdimlp/internal/lp"
	"lowdimlp/internal/meb"
	"lowdimlp/internal/models"
	"lowdimlp/internal/sea"
	"lowdimlp/internal/server"
	"lowdimlp/internal/svm"
)

// The options every road solves with: lpsolve's flag values, the
// library's Options and engine.Options (also the wire's "options")
// spell the same solve.
var (
	roadLib    = lowdimlp.Options{R: 2, K: 2, Delta: 0.5, Seed: 1}
	roadEngine = engine.Options{R: 2, K: 2, Delta: 0.5, Seed: 1}
)

func roadConfig(backend string) config {
	return config{Model: backend, R: 2, K: 2, Delta: 0.5, Seed: 1}
}

// road is one way an instance reaches a solve. It returns the answer
// (see answer) or an error. dir is where the road may write files; a
// road that refuses its input must leave it empty.
type road struct {
	name  string
	solve func(dir, kind, backend string, inst lowdimlp.Instance) (string, error)
}

// answer is a solution's field values in order, each printed as
// lpsolve prints it (%v: the shortest text that parses back to the
// same bits), so equal answers are bit-identical solutions.
func answer(sol lowdimlp.Solution) string {
	var b strings.Builder
	for _, f := range sol.Fields {
		if f.IsVec {
			fmt.Fprintf(&b, "%v\n", f.Vec)
		} else {
			fmt.Fprintf(&b, "%v\n", f.Num)
		}
	}
	return b.String()
}

// printedAnswer is answer read off lpsolve's output: the value of
// every "label = value" line (the stats line has none).
func printedAnswer(out string) string {
	var b strings.Builder
	for _, line := range strings.Split(out, "\n") {
		if _, v, ok := strings.Cut(line, " = "); ok {
			b.WriteString(v + "\n")
		}
	}
	return b.String()
}

func solved(sol lowdimlp.Solution, _ lowdimlp.SolveStats, err error) (string, error) {
	return answer(sol), err
}

// num prints v the way lpsolve's parser reads it back: NaN and ±Inf
// come out as strconv spells them, which is not JSON.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// textInstance renders inst in lpsolve's text format.
func textInstance(kind string, inst lowdimlp.Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d\n", kind, inst.Dim)
	line := func(v []float64) {
		for i, x := range v {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(num(x))
		}
		b.WriteByte('\n')
	}
	if m, _ := lowdimlp.LookupKind(kind); m.HasObjective() {
		line(inst.Objective)
	}
	for _, row := range inst.Rows {
		line(row)
	}
	return b.String()
}

// jsonNums renders v as a JSON array, except that a NaN or ±Inf comes
// out as strconv spells it — the body a client hand-writes.
func jsonNums(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = num(x)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func jsonRows(rows [][]float64) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = jsonNums(r)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// columnar packs rows (all of one width, as every case here has) into
// a store for the roads that carry rows columnar.
func columnar(rows [][]float64) *dataset.Store {
	st := dataset.NewStore(len(rows[0]))
	for _, r := range rows {
		st.AppendRow(r)
	}
	return st
}

// encode converts rows to the kind's typed items, splitting each row
// the way the kind's Item does but at any width, and runs Spec.Encode.
func encode(kind string, dim int, rows [][]float64) (*dataset.Store, error) {
	switch kind {
	case "lp":
		items := make([]lp.Halfspace, len(rows))
		for i, r := range rows {
			items[i] = lp.Halfspace{A: r[:len(r)-1], B: r[len(r)-1]}
		}
		return models.LP.Encode(dim, items)
	case "svm":
		items := make([]svm.Example, len(rows))
		for i, r := range rows {
			items[i] = svm.Example{X: r[:len(r)-1], Y: r[len(r)-1]}
		}
		return models.SVM.Encode(dim, items)
	case "meb":
		items := make([]meb.Point, len(rows))
		for i, r := range rows {
			items[i] = r
		}
		return models.MEB.Encode(dim, items)
	case "sea":
		items := make([]sea.Point, len(rows))
		for i, r := range rows {
			items[i] = r
		}
		return sea.Spec.Encode(dim, items)
	}
	return nil, fmt.Errorf("no typed items for kind %q", kind)
}

// statusAnswer reads a /v1/solve response.
func statusAnswer(resp *http.Response, raw []byte) (string, error) {
	var st server.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	if resp.StatusCode != http.StatusOK || st.Result == nil {
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, st.Error)
	}
	return answer(*st.Result), nil
}

func post(url, contentType string, body []byte) (*http.Response, []byte, error) {
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp, raw, err
}

// serverRoads are the lpserved roads: inline rows, a JSON chunk and a
// binary chunk over HTTP, and a request built in process, submitted to
// a job manager. Warm starts are on, and their key leaves out the
// backend: a server that answered one backend would answer the others
// with that backend's bits (DESIGN.md §3), so callers build these
// roads once per backend.
func serverRoads(t *testing.T) []road {
	srv := server.New(server.Config{Workers: 2, CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	mgr := server.NewManager(1, 4, server.NewCache(-1), server.NewMetrics())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		mgr.Shutdown(ctx)
	})
	envelope := func(kind, backend string, inst lowdimlp.Instance, material string) []byte {
		opt, _ := json.Marshal(roadEngine)
		body := fmt.Sprintf(`{"kind":%q,"model":%q,"dim":%d,%s,"options":%s`, kind, backend, inst.Dim, material, opt)
		if inst.Objective != nil {
			body += `,"objective":` + jsonNums(inst.Objective)
		}
		return []byte(body + "}")
	}
	drop := func(id string) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/instances/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	upload := func(kind string, inst lowdimlp.Instance, contentType string, chunk []byte) (string, error) {
		resp, raw, err := post(ts.URL+"/v1/instances", "application/json",
			[]byte(fmt.Sprintf(`{"kind":%q,"dim":%d}`, kind, inst.Dim)))
		if err != nil {
			return "", err
		}
		var ref struct{ ID string }
		if err := json.Unmarshal(raw, &ref); err != nil || resp.StatusCode != http.StatusCreated {
			return "", fmt.Errorf("create: status %d: %s", resp.StatusCode, raw)
		}
		resp, raw, err = post(ts.URL+"/v1/instances/"+ref.ID+"/rows", contentType, chunk)
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			drop(ref.ID)
			return "", fmt.Errorf("append: status %d: %s", resp.StatusCode, raw)
		}
		return ref.ID, nil
	}
	solveUpload := func(kind, backend string, inst lowdimlp.Instance, id string) (string, error) {
		// A refused solve request leaves the upload open: drop it, as
		// a client would, so the slots do not run out over the cases.
		defer drop(id)
		resp, raw, err := post(ts.URL+"/v1/solve", "application/json",
			envelope(kind, backend, inst, fmt.Sprintf(`"instance_id":%q`, id)))
		if err != nil {
			return "", err
		}
		return statusAnswer(resp, raw)
	}
	return []road{
		{"server inline rows", func(_, kind, backend string, inst lowdimlp.Instance) (string, error) {
			resp, raw, err := post(ts.URL+"/v1/solve", "application/json",
				envelope(kind, backend, inst, `"rows":`+jsonRows(inst.Rows)))
			if err != nil {
				return "", err
			}
			return statusAnswer(resp, raw)
		}},
		{"server JSON chunk", func(_, kind, backend string, inst lowdimlp.Instance) (string, error) {
			id, err := upload(kind, inst, "application/json", []byte(`{"rows":`+jsonRows(inst.Rows)+`}`))
			if err != nil {
				return "", err
			}
			return solveUpload(kind, backend, inst, id)
		}},
		{"server binary chunk", func(_, kind, backend string, inst lowdimlp.Instance) (string, error) {
			var block bytes.Buffer
			st := columnar(inst.Rows)
			if err := dataset.EncodeTo(&block, dataset.Info{Kind: kind, Dim: inst.Dim, Width: st.Width(), Rows: st.Rows()}, st); err != nil {
				return "", err
			}
			id, err := upload(kind, inst, "application/octet-stream", block.Bytes())
			if err != nil {
				return "", err
			}
			return solveUpload(kind, backend, inst, id)
		}},
		{"server in-process rows", func(_, kind, backend string, inst lowdimlp.Instance) (string, error) {
			req := &server.SolveRequest{Kind: kind, Model: backend, Dim: inst.Dim,
				Objective: inst.Objective, Rows: inst.Rows, Options: roadEngine}
			if err := req.Validate(); err != nil {
				return "", err
			}
			job, err := mgr.Submit(req)
			if err != nil {
				return "", err
			}
			<-job.Done
			st := job.Status()
			if st.State != server.StateDone || st.Result == nil {
				return "", fmt.Errorf("job %s: %s", st.State, st.Error)
			}
			return answer(*st.Result), nil
		}},
	}
}

// everyRoad lists the roads into a solve; each solves on the backend
// it is given, and the server roads only ever see one backend.
func everyRoad(t *testing.T) []road {
	roads := []road{
		{"SolveInstance", func(_, kind, backend string, inst lowdimlp.Instance) (string, error) {
			return solved(lowdimlp.SolveInstance(kind, backend, inst, roadLib))
		}},
		{"WriteDatasetFile", func(dir, kind, backend string, inst lowdimlp.Instance) (string, error) {
			path := filepath.Join(dir, "inst.lds")
			if err := lowdimlp.WriteDatasetFile(path, kind, inst); err != nil {
				return "", err
			}
			return solved(lowdimlp.SolveDatasetFile(path, backend, roadLib))
		}},
		{"WriteShardedDatasetFile", func(dir, kind, backend string, inst lowdimlp.Instance) (string, error) {
			path := filepath.Join(dir, "inst.ldm")
			if err := lowdimlp.WriteShardedDatasetFile(path, kind, inst, 2); err != nil {
				return "", err
			}
			return solved(lowdimlp.SolveDatasetFile(path, backend, roadLib))
		}},
		{"Spec.Encode", func(_, kind, backend string, inst lowdimlp.Instance) (string, error) {
			st, err := encode(kind, inst.Dim, inst.Rows)
			if err != nil {
				return "", err
			}
			m, _ := engine.Lookup(kind)
			return solved(m.SolveSource(backend, inst.Dim, inst.Objective, st, roadEngine))
		}},
		{"OpenDatasetSource", func(_, kind, backend string, inst lowdimlp.Instance) (string, error) {
			// A hand-written LDSET1 file: the dataset writer checks
			// nothing about kinds, so the file holds exactly these rows.
			path := filepath.Join(t.TempDir(), "hand.lds")
			st := columnar(inst.Rows)
			info := dataset.Info{Kind: kind, Dim: inst.Dim, Width: st.Width(), Objective: inst.Objective, Rows: st.Rows()}
			if err := dataset.WriteFile(path, info, st); err != nil {
				return "", err
			}
			m, info, src, err := engine.OpenDatasetSource(path)
			if err != nil {
				return "", err
			}
			defer dataset.CloseSource(src)
			return solved(m.SolveSource(backend, info.Dim, info.Objective, src, roadEngine))
		}},
		{"lpsolve run", func(_, kind, backend string, inst lowdimlp.Instance) (string, error) {
			var out bytes.Buffer
			err := run(strings.NewReader(textInstance(kind, inst)), &out, roadConfig(backend))
			return printedAnswer(out.String()), err
		}},
		{"lpsolve -convert", func(dir, kind, backend string, inst lowdimlp.Instance) (string, error) {
			path := filepath.Join(dir, "inst.lds")
			if err := runConvert(strings.NewReader(textInstance(kind, inst)), path, 1, io.Discard); err != nil {
				return "", err
			}
			var out bytes.Buffer
			err := runDataset(path, &out, roadConfig(backend))
			return printedAnswer(out.String()), err
		}},
	}
	return append(roads, serverRoads(t)...)
}

// roadCase is one bad input: a mutation of a valid instance.
type roadCase struct {
	name  string
	kinds []string // nil: every kind
	bad   func(inst *lowdimlp.Instance)
}

var badCases = []roadCase{
	{"NaN in a row", nil, func(in *lowdimlp.Instance) { in.Rows[1][0] = math.NaN() }},
	{"+Inf in a row", nil, func(in *lowdimlp.Instance) { in.Rows[1][len(in.Rows[1])-1] = math.Inf(1) }},
	{"-Inf in a row", nil, func(in *lowdimlp.Instance) { in.Rows[2][0] = math.Inf(-1) }},
	{"rows one number short", nil, func(in *lowdimlp.Instance) {
		for i, r := range in.Rows {
			in.Rows[i] = r[:len(r)-1]
		}
	}},
	{"rows one number long", nil, func(in *lowdimlp.Instance) {
		for i, r := range in.Rows {
			in.Rows[i] = append(r, 1)
		}
	}},
	{"NaN objective", []string{"lp"}, func(in *lowdimlp.Instance) { in.Objective[0] = math.NaN() }},
	{"Inf objective", []string{"lp"}, func(in *lowdimlp.Instance) { in.Objective[1] = math.Inf(1) }},
	{"svm label 0", []string{"svm"}, func(in *lowdimlp.Instance) { in.Rows[1][in.Dim] = 0 }},
}

// clone deep-copies inst so a case can mutate it.
func clone(inst lowdimlp.Instance) lowdimlp.Instance {
	out := lowdimlp.Instance{Dim: inst.Dim, Objective: append([]float64(nil), inst.Objective...)}
	for _, r := range inst.Rows {
		out.Rows = append(out.Rows, append([]float64(nil), r...))
	}
	return out
}

// TestEveryRoadChecksTheSameRows feeds the same bad inputs to every
// road into a solve — the library on four backends, both dataset
// writers, the typed encoder, a hand-written dataset file, lpsolve's
// solve and convert, and lpserved's four ingestion paths. Every road
// must refuse every case with an error, no answer and no file left
// behind; and one valid instance per kind must pass every road with
// the same answer, bit for bit, as SolveInstance on that backend.
func TestEveryRoadChecksTheSameRows(t *testing.T) {
	for _, backend := range lowdimlp.Backends() {
		roads := everyRoad(t)
		for _, kind := range lowdimlp.Kinds() {
			m, _ := lowdimlp.LookupKind(kind)
			valid, err := m.Generate(m.Families()[0], lowdimlp.GenParams{N: 30, D: 2, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			want, err := solved(lowdimlp.SolveInstance(kind, backend, valid, roadLib))
			if err != nil || want == "" {
				t.Fatalf("%s/%s: valid instance: %v", kind, backend, err)
			}
			for _, r := range roads {
				got, err := r.solve(t.TempDir(), kind, backend, clone(valid))
				if err != nil || got != want {
					t.Errorf("%s/%s valid instance via %s: answer %q, err %v; want %q", kind, backend, r.name, got, err, want)
				}
			}
			for _, c := range badCases {
				if c.kinds != nil && c.kinds[0] != kind {
					continue
				}
				inst := clone(valid)
				c.bad(&inst)
				for _, r := range roads {
					dir := t.TempDir()
					got, err := r.solve(dir, kind, backend, clone(inst))
					if err == nil || got != "" {
						t.Errorf("%s/%s %s via %s: answer %q, err %v; want an error and no answer", kind, backend, c.name, r.name, got, err)
					}
					if left, _ := os.ReadDir(dir); len(left) > 0 {
						t.Errorf("%s/%s %s via %s: refused input left %d files behind", kind, backend, c.name, r.name, len(left))
					}
				}
			}
		}
	}
}
