package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"testing"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
)

// TestCountJSONRows pins the decode-free row counter that backs the
// job-status N field for inline bodies.
func TestCountJSONRows(t *testing.T) {
	cases := []struct {
		raw  string
		want int
	}{
		{`[]`, 0},
		{`[[1,2],[3,4]]`, 2},
		{`[ [1.5e3, -2], [3,4], [5,6] ]`, 3},
		{`[["a[","]b"],[1,2]]`, 2},   // brackets inside strings don't count
		{`[["\"[",2]]`, 1},           // escaped quote then bracket
		{`[[[1],[2]],[[3],[4]]]`, 2}, // nested arrays count once
	}
	for _, c := range cases {
		if got := countJSONRows([]byte(c.raw)); got != c.want {
			t.Errorf("countJSONRows(%s) = %d, want %d", c.raw, got, c.want)
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
