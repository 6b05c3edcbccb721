package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
)

// TestRowsJSONGrammar pins the grammar check that backs the job-status
// N field for inline bodies: it counts the rows of an array of arrays
// of numbers and refuses every other shape, naming the row.
func TestRowsJSONGrammar(t *testing.T) {
	cases := []struct {
		raw  string
		want int
	}{
		{`[]`, 0},
		{`[[1,2],[3,4]]`, 2},
		{"[ [1.5e3, -2], [3,4]\n,\t[5,6] ]", 3},
		{`[[-0.0e+0, 0, 1E-7]]`, 1},
		{`[[]]`, 1}, // one empty row: a width error when converted
	}
	for _, c := range cases {
		end, got, err := scanRowsJSON([]byte(c.raw), 0, nil)
		if err != nil || got != c.want || end != len(c.raw) {
			t.Errorf("%s: %d rows, end %d, err %v; want %d rows", c.raw, got, end, err, c.want)
		}
	}
	for _, raw := range []string{
		`null`, `{}`, `[1,2]`, `[[1],]`, `[[1]`, `[[1,]]`, `[[,1]]`, `[[1 2]]`,
		`[["a[","]b"],[1,2]]`, `[[[1],[2]]]`, `[[1,null]]`, `[null]`, `[[true]]`,
		`[[01]]`, `[[1.]]`, `[[.5]]`, `[[+1]]`, `[[1e]]`, `[[-]]`, `[[NaN]]`, `[[0x10]]`,
	} {
		if _, _, err := scanRowsJSON([]byte(raw), 0, nil); err == nil {
			t.Errorf("%s: accepted", raw)
		}
	}
}

// TestEmptyRowsWhitespace: "rows": [ ] must behave exactly like
// "rows": [] — absent.
func TestEmptyRowsWhitespace(t *testing.T) {
	for _, body := range []string{
		`{"kind":"meb","model":"ram","dim":2,"rows":[]}`,
		`{"kind":"meb","model":"ram","dim":2,"rows":[ ]}`,
		"{\"kind\":\"meb\",\"model\":\"ram\",\"dim\":2,\"rows\":[\n]}",
		`{"kind":"meb","model":"ram","dim":2,"rows":null}`,
		`{"kind":"meb","model":"ram","dim":2}`,
	} {
		var req SolveRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if req.rawRows != nil {
			t.Errorf("%s: rawRows = %q, want nil", body, req.rawRows)
		}
	}
	var req SolveRequest
	if err := json.Unmarshal([]byte(`{"kind":"meb","dim":2,"rows":[ [1,2] ]}`), &req); err != nil {
		t.Fatal(err)
	}
	if req.rawRows == nil {
		t.Error("non-empty rows array dropped")
	}
}

// TestUnmarshalJSONCopiesRows: a json.Unmarshaler must not keep the
// bytes it is given (json.Decoder reuses its buffer), so the raw rows
// of a decoded SolveRequest survive the body being overwritten.
func TestUnmarshalJSONCopiesRows(t *testing.T) {
	body := []byte(`{"kind":"meb","dim":2,"rows":[[1,2],[3,4]]}`)
	var req SolveRequest
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatal(err)
	}
	for i := range body {
		body[i] = ' '
	}
	if string(req.rawRows) != `[[1,2],[3,4]]` || req.rawN != 2 {
		t.Errorf("after the body was overwritten: rows %q (%d); want [[1,2],[3,4]] (2)", req.rawRows, req.rawN)
	}
}

// rowError is the part of an ingestion error from "row N:" on; every
// road reports a refused row with it, whatever it prefixes.
var rowError = regexp.MustCompile(`row \d+: .*`)

// FuzzIngestRoadsAgree feeds rows of any width and any float64 bit
// pattern (NaN and ±Inf included) to four ingestion roads:
// engine.Columnar, engine.ValidateSource over a Store, a dataset file
// written unchecked and opened with engine.OpenDatasetSource, and
// decodeBinaryChunk. All four must accept, or all four must refuse the
// same row with the same error.
func FuzzIngestRoadsAgree(f *testing.F) {
	bits := func(vs ...float64) []byte {
		out := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(uint8(0), uint8(1), int8(0), bits(1, 0, 3, 0, 1, 4, -1, -1, 0))     // lp, valid
	f.Add(uint8(0), uint8(1), int8(0), bits(1, 0, 3, nan, 1, 4, -1, -1, 0))   // lp, NaN in row 1
	f.Add(uint8(1), uint8(1), int8(0), bits(1, 2, 1, 3, 4, -1, 5, 6, 0))      // svm, label 0 in row 2
	f.Add(uint8(2), uint8(1), int8(0), bits(1, 2, 3, inf, 5, 6))              // meb, +Inf in row 1
	f.Add(uint8(3), uint8(1), int8(-1), bits(1, 2, 3))                        // sea, rows one short
	f.Add(uint8(2), uint8(2), int8(1), bits(1, 2, 3, 4, 5, 6, 7, 8, -inf, 0)) // meb, rows one long
	f.Fuzz(func(t *testing.T, kindSel, dimSel uint8, delta int8, data []byte) {
		kinds := engine.Kinds()
		kind := kinds[int(kindSel)%len(kinds)]
		m, _ := engine.Lookup(kind)
		dim := 1 + int(dimSel)%4
		width := m.RowWidth(dim) + int(delta)%2
		if width < 1 {
			return
		}
		st := dataset.NewStore(width)
		rows := make([][]float64, min(len(data)/(8*width), 64))
		for i := range rows {
			rows[i] = make([]float64, width)
			for j := range rows[i] {
				rows[i][j] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*(i*width+j):]))
			}
			st.AppendRow(rows[i])
		}
		var objective []float64
		if m.HasObjective() {
			objective = make([]float64, dim)
			for i := range objective {
				objective[i] = 1
			}
		}
		info := dataset.Info{Kind: kind, Dim: dim, Width: width, Objective: objective, Rows: st.Rows()}

		path := filepath.Join(t.TempDir(), "rows.lds")
		if err := dataset.WriteFile(path, info, st); err != nil {
			t.Fatal(err)
		}
		var block bytes.Buffer
		if err := dataset.EncodeTo(&block, info, st); err != nil {
			t.Fatal(err)
		}
		_, colErr := engine.Columnar(m, engine.Instance{Dim: dim, Objective: objective, Rows: rows})
		errs := map[string]error{
			"Columnar":       colErr,
			"ValidateSource": engine.ValidateSource(m, dim, st),
		}
		if _, _, src, err := engine.OpenDatasetSource(path); err == nil {
			dataset.CloseSource(src)
		} else {
			errs["OpenDatasetSource"] = err
		}
		_, errs["decodeBinaryChunk"] = decodeBinaryChunk(&block, m, kind, dim)

		want := "accepted"
		if colErr != nil {
			want = rowError.FindString(colErr.Error())
		}
		for name, err := range errs {
			got := "accepted"
			if err != nil {
				got = rowError.FindString(err.Error())
			}
			if got != want || (err != nil && got == "") {
				t.Errorf("%s/dim %d, %d rows of width %d: %s says %q (%v), Columnar says %q",
					kind, dim, len(rows), width, name, got, err, want)
			}
		}
	})
}

// TestRowsJSONRefusesNull: a null inside a row is refused with its row,
// on both JSON roads. (encoding/json leaves a null element untouched,
// so a reused row slice kept the previous row's value there.)
func TestRowsJSONRefusesNull(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	for _, c := range []struct{ rows, row string }{
		{`[[1,2,3,4],[5,null,7,8]]`, "row 1: "},
		{`[[null,2,3,4]]`, "row 0: "},
		{`[[1,2,3,4],null]`, "row 1: "},
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/solve", json.RawMessage(
			`{"kind":"lp","model":"ram","dim":3,"objective":[1,1,1],"rows":`+c.rows+`}`))
		if st := decodeStatus(t, raw); resp.StatusCode != http.StatusBadRequest || !strings.Contains(st.Error, c.row) || !strings.Contains(st.Error, "null") {
			t.Errorf("inline %s: HTTP %d %q; want 400 naming %q and null", c.rows, resp.StatusCode, st.Error, c.row)
		}
		id := createInstance(t, ts.URL, "lp", 3)
		resp, raw = postJSON(t, ts.URL+"/v1/instances/"+id+"/rows", json.RawMessage(`{"rows":`+c.rows+`}`))
		if st := decodeStatus(t, raw); resp.StatusCode != http.StatusBadRequest || !strings.Contains(st.Error, c.row) || !strings.Contains(st.Error, "null") {
			t.Errorf("append %s: HTTP %d %q; want 400 naming %q and null", c.rows, resp.StatusCode, st.Error, c.row)
		}
	}
}

// TestShortRowsReserveLittle: the grammar check counts rows before any
// is checked against the kind, so a body of a million empty rows — 3
// bytes each, a row of 17 numbers at lp dim 16 — must not reserve
// store space by that count. Both JSON roads refuse it at row 0 (an
// inline body's job fails, 422; an append is a 400) having allocated a
// small multiple of the body, not rows × width × 8 bytes.
func TestShortRowsReserveLittle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	rows := append(append([]byte("["), bytes.Repeat([]byte("[],"), 1_000_000-1)...), "[]]"...)
	objective := `[` + strings.Repeat(`1,`, MaxDim-1) + `1]`
	for _, road := range []struct {
		name, url, prefix string
		status            int
	}{
		{"inline", ts.URL + "/v1/solve", `{"kind":"lp","model":"ram","dim":16,"objective":` + objective + `,"rows":`, http.StatusUnprocessableEntity},
		{"append", ts.URL + "/v1/instances/" + createInstance(t, ts.URL, "lp", MaxDim) + "/rows", `{"rows":`, http.StatusBadRequest},
	} {
		body := append(append([]byte(road.prefix), rows...), '}')
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		resp, err := http.Post(road.url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		runtime.ReadMemStats(&after)
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d-byte body, HTTP %d, %.1f MB allocated (%.1f× the body)",
			road.name, len(body), resp.StatusCode, float64(alloc)/1e6, float64(alloc)/float64(len(body)))
		if resp.StatusCode != road.status || !strings.Contains(string(raw), "row 0: ") {
			t.Errorf("%s: HTTP %d %s; want %d naming row 0", road.name, resp.StatusCode, raw, road.status)
		}
		if alloc > 12*uint64(len(body)) {
			t.Errorf("%s: a %d-byte body of empty rows allocated %d bytes; want at most 12× the body", road.name, len(body), alloc)
		}
	}
}

// TestBodyReadCostsItsSize: a request body is read into a buffer sized
// by its declared length, not grown from 512 B by append. decodeRequest
// on a 3 MB inline body allocates at most 2.5 times the body (io.ReadAll
// took about five times), and on a body that declares 64 MiB and sends
// 1 KiB at most 1.1 MiB.
func TestBodyReadCostsItsSize(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	envelope := func(rows []byte) []byte {
		return []byte(`{"kind":"lp","model":"ram","dim":3,"objective":[1,1,1],"rows":` + string(rows) + `}`)
	}
	big := envelope(lpRowsJSON(t, 40_000))
	small := envelope(lpRowsJSON(t, 12))
	for _, c := range []struct {
		name     string
		body     []byte
		declared int64
		most     float64
	}{
		{"3 MB body", big, int64(len(big)), 2.5 * float64(len(big))},
		{"declares 64 MiB, sends 1 KiB", small, 64 << 20, 1.1 * (1 << 20)},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(c.body))
		r.ContentLength = c.declared
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		req, _, err := s.decodeRequest(httptest.NewRecorder(), r)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(req.rawRows) == 0 {
			t.Fatalf("%s: no rows kept", c.name)
		}
		alloc := float64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("%s: %d-byte body, %.2f MB allocated (%.2f× the body)", c.name, len(c.body), alloc/1e6, alloc/float64(len(c.body)))
		if alloc > c.most {
			t.Errorf("%s: %d-byte body allocated %.0f bytes; want at most %.0f", c.name, len(c.body), alloc, c.most)
		}
	}
}

// lpRowsJSON renders n lp rows of width 4 as encoding/json does.
func lpRowsJSON(t *testing.T, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewPCG(uint64(n), 3))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), 1 + rng.Float64()}
	}
	raw, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRowsJSONAllocations: an inline body's road from its bytes to a
// materialized store — the handler's envelope decode, then the rows conversion
// into a store grown to the counted rows — allocates a constant number
// of times, not a few per row or per doubling of the arena.
func TestRowsJSONAllocations(t *testing.T) {
	allocs := func(n int) float64 {
		body := []byte(`{"kind":"lp","model":"ram","dim":3,"objective":[1,1,1],"rows":` + string(lpRowsJSON(t, n)) + `}`)
		return testing.AllocsPerRun(5, func() {
			var req SolveRequest
			if err := req.decodeBody(body); err != nil {
				t.Fatal(err)
			}
			if err := req.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := materialize(&req); err != nil || req.data.Rows() != n {
				t.Fatalf("%d rows: materialized %v, err %v", n, req.data, err)
			}
		})
	}
	small, large := allocs(40), allocs(4000)
	t.Logf("inline body to store: %.0f allocations at 40 rows, %.0f at 4 000", small, large)
	if large > small {
		t.Fatalf("an inline body of 4 000 rows allocates %.0f times, one of 40 rows %.0f times: want no growth with the rows", large, small)
	}
}

// FuzzRowsJSONAgrees holds the JSON roads to encoding/json, on every
// input, in two arms. Rows arm: the reader accepts exactly what
// json.Unmarshal into [][]float64 accepts without a null, with the
// same Float64bits, and its grammar-only pass counts the same rows.
// Body arm: decodeRowsBody accepts a body exactly when json.Unmarshal
// does with the rows member kept raw (the method-free decode the split
// replaced) and every top-level rows member is null or passes the rows
// arm; it then decodes the same fields and keeps the same rows bytes.
func FuzzRowsJSONAgrees(f *testing.F) {
	for _, seed := range []string{
		`[[1,2],[3,4]]`, ` [ [ 1.5E+3 , -0 ] ,[0.1e-2,-7]] `, `[]`, `[[]]`, `null`, `[[1,null]]`, `[null]`,
		`[[1e400]]`, `[[1e-400, 4.9e-324]]`, `[[1],[2,3]]`, `[[01]]`, `[["1"]]`, `[[1]]x`,
		`{"kind":"lp","dim":2,"objective":[1,1],"rows":[[1,0,3],[0,1,4]]}`,
		`{"kind":"meb","Rows":[[1,2]],"DIM":2}`,
		`{"rows":[[1,2]],"kind":"meb","rows":[[3,4],[5,6]]}`,
		`{"rows":[[1,2]],"rows":null}`,
		`{"r\u006fws":[[1,2]],"kin\u0064":"svm"}`,
		`{"ROWſ":[[9]]}`,
		" {\n\t\"kind\" : \"sea\" ,\r\"rows\"\t:\n[ [1 , 2] ] } ",
		`{"kind":"meb","rows":null}`, `{"kind":"meb","rows":[ ]}`, `{"kind":"meb"}`, `{}`,
		`{"rows":"x"}`, `{"rows":[[1,2]],}`, `{"generate":{"n":5,"family":"ball"},"generate":{"d":2}}`,
		`{"options":{"r":3,"seed":7},"trace":true,"rows":[[1,2,3]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rowsArm(t, data)
		bodyArm(t, data)
	})
}

// refRowsOK is the reference for the rows reader: encoding/json
// accepts raw as [][]float64 and no element or row is null (such raw
// holds only arrays, numbers and nulls, so a byte search finds them).
func refRowsOK(raw []byte) ([][]float64, bool) {
	var rows [][]float64
	err := json.Unmarshal(raw, &rows)
	return rows, err == nil && !bytes.Contains(raw, []byte("null"))
}

func rowsArm(t *testing.T, data []byte) {
	want, wantOK := refRowsOK(data)
	var got [][]float64
	end, n, err := scanRowsJSON(data, skipSpace(data, 0), func(row []float64) error {
		got = append(got, append([]float64(nil), row...))
		return nil
	})
	gotOK := err == nil && skipSpace(data, end) == len(data)
	if gotOK != wantOK {
		t.Fatalf("rows %q: reader accepts %v (%v), encoding/json %v", data, gotOK, err, wantOK)
	}
	if !gotOK {
		return
	}
	if gEnd, gN, err := scanRowsJSON(data, skipSpace(data, 0), nil); err != nil || gEnd != end || gN != n || n != len(want) {
		t.Fatalf("rows %q: grammar pass %d rows to %d (%v), conversion %d rows to %d, encoding/json %d rows", data, gN, gEnd, err, n, end, len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("rows %q: row %d has %d numbers, encoding/json %d", data, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("rows %q: [%d][%d] = %v, encoding/json %v", data, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func bodyArm(t *testing.T, data []byte) {
	type envelope SolveRequest
	var want SolveRequest
	aux := struct {
		*envelope
		Rows json.RawMessage `json:"rows"`
	}{envelope: (*envelope)(&want)}
	wantOK := json.Unmarshal(data, &aux) == nil
	wantRows := []byte(aux.Rows) // absent, null and [ ] mean no rows
	if string(wantRows) == "null" || len(wantRows) > 0 && wantRows[0] == '[' && skipSpace(wantRows, 1) == len(wantRows)-1 {
		wantRows = nil
	}
	if wantOK {
		// Every top-level rows member must be null or pass the rows arm.
		dec := json.NewDecoder(bytes.NewReader(data))
		if tok, _ := dec.Token(); tok == json.Delim('{') {
			for dec.More() {
				key, _ := dec.Token()
				var val json.RawMessage
				if err := dec.Decode(&val); err != nil {
					t.Fatalf("body %q: re-reading a member: %v", data, err)
				}
				if _, ok := refRowsOK(val); strings.EqualFold(key.(string), "rows") && !ok && string(val) != "null" {
					wantOK = false
				}
			}
		}
	}
	var got SolveRequest
	err := got.UnmarshalJSON(data)
	if (err == nil) != wantOK {
		t.Fatalf("body %q: split accepts %v (%v), reference %v", data, err == nil, err, wantOK)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got.rawRows, wantRows) {
		t.Fatalf("body %q: rows %q, reference %q", data, got.rawRows, wantRows)
	}
	if got.rawRows != nil {
		if _, n, _ := scanRowsJSON(got.rawRows, 0, nil); n != got.rawN {
			t.Fatalf("body %q: %d rows counted, the rows hold %d", data, got.rawN, n)
		}
	}
	got.rawRows, got.rawN = nil, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: decoded %+v, reference %+v", data, got, want)
	}
}
