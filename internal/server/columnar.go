package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
)

// decodeBinaryChunk reads one LDSET1 block (self-describing header +
// raw little-endian rows, the same format lpsolve -convert writes)
// from r into a checked columnar chunk: the header must agree with the
// instance's kind and dimension, and engine.ValidateSource runs the
// one row check on every row — the JSON path's check, without parsing
// a single ASCII float.
func decodeBinaryChunk(r io.Reader, m engine.Model, kind string, dim int) (*dataset.Store, error) {
	// Strict: exactly one block per request — trailing bytes would be
	// rows the client thinks it uploaded, silently dropped. The decode
	// streams straight off the body; nothing is buffered twice.
	info, st, err := dataset.DecodeFromStrict(r)
	if err != nil {
		return nil, fmt.Errorf("bad binary chunk: %w", err)
	}
	if info.Kind != kind {
		return nil, fmt.Errorf("binary chunk is kind %q, instance is %q", info.Kind, kind)
	}
	if info.Dim != dim {
		return nil, fmt.Errorf("binary chunk has dim %d, instance has %d", info.Dim, dim)
	}
	if st.Rows() > MaxInstanceRows {
		return nil, fmt.Errorf("binary chunk exceeds %d rows", MaxInstanceRows)
	}
	if err := engine.ValidateSource(m, dim, st); err != nil {
		return nil, err
	}
	return st, nil
}

// decodeRowsJSON streams a JSON array-of-rows straight into a columnar
// store: one reusable []float64 is decoded per row (json.Decoder
// reuses its backing array) and copied into the arena, so ingesting n
// rows allocates O(1) slice headers instead of n — no [][]float64 is
// ever materialized. Each row passes CheckRow before it is committed;
// maxRows bounds the total.
func decodeRowsJSON(raw []byte, m engine.Model, dim int, st *dataset.Store, maxRows int) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("bad rows JSON: %w", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("rows must be an array, got %v", tok)
	}
	row := make([]float64, 0, st.Width())
	i := 0
	for dec.More() {
		row = row[:0]
		if err := dec.Decode(&row); err != nil {
			return fmt.Errorf("row %d: bad JSON: %w", i, err)
		}
		if err := m.CheckRow(dim, row); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		if st.Rows() >= maxRows {
			return fmt.Errorf("instance exceeds %d rows", maxRows)
		}
		st.AppendRow(row)
		i++
	}
	if _, err := dec.Token(); err != nil { // closing ']'
		return fmt.Errorf("bad rows JSON: %w", err)
	}
	return nil
}

// countJSONRows counts the top-level elements of a JSON array of
// arrays without decoding it — a byte scan, so job status can report
// the instance size from submission while materialization waits for a
// worker. Malformed input yields a best-effort count; the real decode
// rejects it later.
func countJSONRows(raw []byte) int {
	depth, count := 0, 0
	inStr, esc := false, false
	for _, b := range raw {
		if inStr {
			switch {
			case esc:
				esc = false
			case b == '\\':
				esc = true
			case b == '"':
				inStr = false
			}
			continue
		}
		switch b {
		case '"':
			inStr = true
		case '[':
			depth++
			if depth == 2 {
				count++
			}
		case ']':
			depth--
		}
	}
	return count
}
