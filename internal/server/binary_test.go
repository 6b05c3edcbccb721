// Tests for the binary (octet-stream) chunk-append path: it must be
// observationally identical to the JSON flow — same validation, same
// solutions, same cache digests — with only ingest cost changing.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/workload"
)

// binaryChunk encodes rows as an LDSET1 block, the octet-stream wire
// form.
func binaryChunk(t *testing.T, kind string, dim, width int, rows [][]float64) []byte {
	t.Helper()
	st := dataset.NewStore(width)
	for _, r := range rows {
		st.AppendRow(r)
	}
	var buf bytes.Buffer
	if err := dataset.EncodeTo(&buf, dataset.Info{Kind: kind, Dim: dim, Width: width, Rows: len(rows)}, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postBinary(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// mebRows returns n 2-D points as flat rows.
func mebRows(n int, seed uint64) [][]float64 {
	pts := workload.MEBCloud(workload.MEBGaussian, 2, n, seed)
	rows := make([][]float64, n)
	for i, p := range pts {
		rows[i] = p
	}
	return rows
}

func createInstance(t *testing.T, url, kind string, dim int) string {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/instances", instanceCreateBody{Kind: kind, Dim: dim})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, raw)
	}
	var ref instanceRef
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	return ref.ID
}

func solveInstance(t *testing.T, url, kind, model, id string, dim int, seed uint64) JobStatus {
	t.Helper()
	resp, raw := postJSON(t, url+"/v1/solve", SolveRequest{
		Kind: kind, Model: model, Dim: dim, InstanceID: id,
		Options: SolveOptions{R: 2, Seed: seed},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d: %s", resp.StatusCode, raw)
	}
	return decodeStatus(t, raw)
}

// TestBinaryAppendMatchesJSON uploads the same instance through the
// JSON and the octet-stream paths and pins identical solutions (the
// binary path skips JSON float parsing, nothing else).
func TestBinaryAppendMatchesJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	rows := mebRows(500, 7)

	jsonID := createInstance(t, ts.URL, "meb", 2)
	binID := createInstance(t, ts.URL, "meb", 2)
	for i := 0; i < len(rows); i += 125 {
		if resp, raw := postJSON(t, ts.URL+"/v1/instances/"+jsonID+"/rows",
			instanceAppendBody{Rows: rows[i : i+125]}); resp.StatusCode != http.StatusOK {
			t.Fatalf("json append: %d %s", resp.StatusCode, raw)
		}
		chunk := binaryChunk(t, "meb", 2, 2, rows[i:i+125])
		if resp, raw := postBinary(t, ts.URL+"/v1/instances/"+binID+"/rows", chunk); resp.StatusCode != http.StatusOK {
			t.Fatalf("binary append: %d %s", resp.StatusCode, raw)
		}
	}
	a := solveInstance(t, ts.URL, "meb", "stream", jsonID, 2, 11)
	b := solveInstance(t, ts.URL, "meb", "stream", binID, 2, 11)
	ra, _ := a.Result.Scalar("radius")
	rb, _ := b.Result.Scalar("radius")
	if ra != rb {
		t.Fatalf("radius drift: json %v, binary %v", ra, rb)
	}
	// Identical instances + options share a digest: the second solve is
	// a cache hit even though the bytes arrived in different encodings.
	if !b.Cached {
		t.Fatal("binary-uploaded instance missed the cache entry of its JSON twin")
	}
	if got := s.metrics.BinaryAppends.Load(); got != 4 {
		t.Fatalf("binary append counter %d, want 4", got)
	}
}

// TestSpillToShardedFiles: uploads never spill to sharded files; out-of-core
// inputs go through dataset files or a worker fleet instead. A large binary
// upload stays one in-memory store that lists its true row count, solves to
// the answer of the same rows sent inline (sharing its cache entry), and is
// released by a DELETE.
func TestSpillToShardedFiles(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	rows := mebRows(1000, 13)

	id := createInstance(t, ts.URL, "meb", 2)
	dropID := createInstance(t, ts.URL, "meb", 2)
	for i := 0; i < len(rows); i += 250 {
		chunk := binaryChunk(t, "meb", 2, 2, rows[i:i+250])
		for _, to := range []string{id, dropID} {
			if resp, raw := postBinary(t, ts.URL+"/v1/instances/"+to+"/rows", chunk); resp.StatusCode != http.StatusOK {
				t.Fatalf("append: %d %s", resp.StatusCode, raw)
			}
		}
	}
	// Both uploads list with their true row count.
	infos := s.instances.List("")
	if len(infos) != 2 {
		t.Fatalf("instance listing: %+v", infos)
	}
	for _, info := range infos {
		if info.Rows != len(rows) {
			t.Fatalf("instance %s lists %d rows, want %d", info.ID, info.Rows, len(rows))
		}
	}

	// A coordinator solve of the upload matches the same rows sent
	// inline, and shares its cache entry.
	st := solveInstance(t, ts.URL, "meb", "coordinator", id, 2, 99)
	got, _ := st.Result.Scalar("radius")
	resp, raw := postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Kind: "meb", Model: "coordinator", Dim: 2, Rows: rows,
		Options: SolveOptions{R: 2, Seed: 99},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline solve: %d %s", resp.StatusCode, raw)
	}
	inline := decodeStatus(t, raw)
	if want, _ := inline.Result.Scalar("radius"); got != want {
		t.Fatalf("uploaded radius %v, inline %v", got, want)
	}
	if !inline.Cached {
		t.Fatal("inline rows missed the cache entry of their uploaded twin")
	}

	// DELETE releases an upload: it leaves the store and its ID no
	// longer solves.
	dreq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/instances/"+dropID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop status %d", dresp.StatusCode)
	}
	if n := s.instances.Len(); n != 0 {
		t.Fatalf("store still holds %d instances after solve and drop", n)
	}
	resp, raw = postJSON(t, ts.URL+"/v1/solve", SolveRequest{
		Kind: "meb", Model: "ram", Dim: 2, InstanceID: dropID,
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("solve of a dropped instance: %d %s, want 404", resp.StatusCode, raw)
	}
}

// TestBinaryAppendValidation: the binary path applies the same checks
// as JSON ingestion — header/instance agreement, finiteness, kind
// invariants, and garbage rejection.
func TestBinaryAppendValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	id := createInstance(t, ts.URL, "svm", 2)

	reject := func(what string, body []byte) {
		t.Helper()
		resp, raw := postBinary(t, ts.URL+"/v1/instances/"+id+"/rows", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d (%s), want 400", what, resp.StatusCode, raw)
		}
	}
	reject("garbage", []byte("not a dataset"))
	reject("truncated", binaryChunk(t, "svm", 2, 3, [][]float64{{1, 2, 1}})[:20])
	// Two concatenated blocks must be rejected, not silently halved.
	one := binaryChunk(t, "svm", 2, 3, [][]float64{{1, 2, 1}})
	reject("concatenated blocks", append(append([]byte(nil), one...), one...))
	reject("kind mismatch", binaryChunk(t, "meb", 2, 2, [][]float64{{1, 2}}))
	reject("dim mismatch", binaryChunk(t, "svm", 3, 4, [][]float64{{1, 2, 3, 1}}))
	reject("NaN row", binaryChunk(t, "svm", 2, 3, [][]float64{{1, math.NaN(), 1}}))
	reject("bad label", binaryChunk(t, "svm", 2, 3, [][]float64{{1, 2, 0.5}}))
	// The instance is still usable after rejected chunks.
	ok := binaryChunk(t, "svm", 2, 3, [][]float64{{1, 2, 1}, {-1, -2, -1}})
	if resp, raw := postBinary(t, ts.URL+"/v1/instances/"+id+"/rows", ok); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid chunk rejected: %d %s", resp.StatusCode, raw)
	}
}

// TestConcurrentBinaryAppendsAndSolves hammers the service with ≥16
// goroutines doing octet-stream appends and solves at once (run under
// -race in CI): per-goroutine instances pin answer correctness, and a
// shared instance takes concurrent appends whose total must add up.
func TestConcurrentBinaryAppendsAndSolves(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64, MaxInstances: 64})
	const G = 16
	sharedID := createInstance(t, ts.URL, "meb", 2)
	var wg sync.WaitGroup
	errs := make(chan error, 4*G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows := mebRows(240, uint64(100+g))
			// Private instance: binary chunks, then a solve.
			resp, raw := postJSON(t, ts.URL+"/v1/instances", instanceCreateBody{Kind: "meb", Dim: 2})
			if resp.StatusCode != http.StatusCreated {
				errs <- fmt.Errorf("g%d create: %d %s", g, resp.StatusCode, raw)
				return
			}
			var ref instanceRef
			if err := json.Unmarshal(raw, &ref); err != nil {
				errs <- err
				return
			}
			for i := 0; i < len(rows); i += 80 {
				chunk := binaryChunk(t, "meb", 2, 2, rows[i:i+80])
				if resp, raw := postBinary(t, ts.URL+"/v1/instances/"+ref.ID+"/rows", chunk); resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("g%d append: %d %s", g, resp.StatusCode, raw)
					return
				}
			}
			resp, raw = postJSON(t, ts.URL+"/v1/solve", SolveRequest{
				Kind: "meb", Model: "stream", Dim: 2, InstanceID: ref.ID,
				Options: SolveOptions{R: 2, Seed: uint64(g)},
			})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("g%d solve: %d %s", g, resp.StatusCode, raw)
				return
			}
			if r, ok := decodeStatus(t, raw).Result.Scalar("radius"); !ok || r <= 0 {
				errs <- fmt.Errorf("g%d: radius %v ok=%v", g, r, ok)
				return
			}
			// Shared instance: concurrent appends (may race with its
			// solve below and hit the sealed window — both outcomes are
			// legal; data corruption is what -race and the total check
			// rule out).
			chunk := binaryChunk(t, "meb", 2, 2, rows[:25])
			resp, _ = postBinary(t, ts.URL+"/v1/instances/"+sharedID+"/rows", chunk)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusBadRequest {
				errs <- fmt.Errorf("g%d shared append: %d", g, resp.StatusCode)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The shared instance saw all G appends (no solve raced it away in
	// this schedule — solves above target private instances only).
	st := solveInstance(t, ts.URL, "meb", "ram", sharedID, 2, 1)
	if st.N != G*25 {
		t.Fatalf("shared instance solved %d rows, want %d", st.N, G*25)
	}
}
