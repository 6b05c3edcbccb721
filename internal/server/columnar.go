package server

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

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

// Inline rows and JSON chunks are read by one strict reader of the one
// shape they take: a JSON array of arrays of numbers. It makes one pass
// over the bytes, checks every number token against the JSON number
// grammar and converts it with strconv.ParseFloat, the call
// encoding/json makes, so each value has the bits encoding/json would
// give it. Anything else — null, strings, booleans, objects, deeper
// nesting — is refused with the row it is in. (encoding/json decodes a
// null element by leaving it as it was, which in a reused row is the
// previous row's value.)

// scanRowsJSON reads the rows array that starts at b[i] and returns
// the offset just past it and its row count. With row nil it checks
// the grammar only; otherwise it converts each row and hands it to row
// (the slice is reused for the next row), and an error row returns is
// the scan's, prefixed with the row's index.
func scanRowsJSON(b []byte, i int, row func([]float64) error) (end, rows int, err error) {
	if i >= len(b) || b[i] != '[' {
		return 0, 0, fmt.Errorf("rows must be an array of arrays of numbers, got %s", found(b, i))
	}
	var vals []float64
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1, 0, nil
	}
	for {
		if i >= len(b) || b[i] != '[' {
			return 0, rows, fmt.Errorf("row %d: want an array of numbers, got %s", rows, found(b, i))
		}
		i = skipSpace(b, i+1)
		vals = vals[:0]
		if i < len(b) && b[i] == ']' {
			i++
		} else {
			for k := 0; ; k++ {
				j := numberEnd(b, i)
				if j < 0 {
					return 0, rows, fmt.Errorf("row %d: element %d: want a number, got %s", rows, k, found(b, i))
				}
				if row != nil {
					v, err := strconv.ParseFloat(string(b[i:j]), 64)
					if err != nil {
						return 0, rows, fmt.Errorf("row %d: element %d: number %s out of range", rows, k, b[i:j])
					}
					vals = append(vals, v)
				}
				i = skipSpace(b, j)
				if i < len(b) && b[i] == ',' {
					i = skipSpace(b, i+1)
					continue
				}
				if i < len(b) && b[i] == ']' {
					i++
					break
				}
				return 0, rows, fmt.Errorf("row %d: after element %d: want ',' or ']', got %s", rows, k, found(b, i))
			}
		}
		if row != nil {
			if err := row(vals); err != nil {
				return 0, rows, fmt.Errorf("row %d: %w", rows, err)
			}
		}
		rows++
		i = skipSpace(b, i)
		if i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == ']' {
			return i + 1, rows, nil
		}
		return 0, rows, fmt.Errorf("after row %d: want ',' or ']', got %s", rows-1, found(b, i))
	}
}

// decodeRowsJSON reads the rows array raw (surrounding whitespace
// allowed), in which the grammar check counted n rows, into st: each
// row is checked with m.CheckRow before it is appended, and st may
// grow to maxRows rows. st is grown once up front, which makes the
// decode allocate a constant number of times — but n is only a count
// of brackets, so the growth is also bounded by the rows raw can hold
// that CheckRow accepts: a row of w numbers takes at least 2w+1 bytes,
// and a body of empty rows reserves at most about four times its size.
func decodeRowsJSON(raw []byte, n int, m engine.Model, dim int, st *dataset.Store, maxRows int) error {
	st.Grow(min(n, maxRows, len(raw)/(2*st.Width()+1)))
	end, _, err := scanRowsJSON(raw, skipSpace(raw, 0), func(row []float64) error {
		if err := m.CheckRow(dim, row); err != nil {
			return err
		}
		if st.Rows() >= maxRows {
			return fmt.Errorf("instance exceeds %d rows", maxRows)
		}
		st.AppendRow(row)
		return nil
	})
	if err != nil {
		return err
	}
	if end = skipSpace(raw, end); end != len(raw) {
		return fmt.Errorf("after the rows array: unexpected %s", found(raw, end))
	}
	return nil
}

// numberEnd returns the end of the JSON number token
// -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? at b[i:], or -1 when
// none starts there. What follows the token is the caller's to check.
func numberEnd(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digitsEnd(b, i+1)
	default:
		return -1
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// skipSpace returns the offset of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// found names what a reader met at b[i], for its error.
func found(b []byte, i int) string {
	switch {
	case i >= len(b):
		return "the end of the input"
	case bytes.HasPrefix(b[i:], []byte("null")):
		return "null"
	default:
		return fmt.Sprintf("%q", b[i])
	}
}
