// Package linalg provides the small dense linear-algebra kernels used
// by the geometric solvers: one Gaussian elimination with partial
// pivoting for float64 systems (SolveInPlace, which Solve runs on a
// copy), and linear solves and determinants in exact rational
// arithmetic (math/big.Rat).
//
// Systems in this repository are tiny (order d, the LP dimension, which
// is a small constant), so we favour clarity and numerical robustness
// over blocked performance.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution
// (the matrix is singular or numerically rank-deficient).
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[r*Cols+c]
}

// NewMatrix allocates a zero r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices. All rows must have equal
// length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	c := len(rows[0])
	m := NewMatrix(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r (shared storage).
func (m *Matrix) Row(r int) []float64 { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := ""
	for r := 0; r < m.Rows; r++ {
		s += fmt.Sprintf("%v\n", m.Row(r))
	}
	return s
}

// MulVec returns m · x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: dimension mismatch in MulVec")
	}
	out := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		var s float64
		for c, v := range row {
			s += v * x[c]
		}
		out[r] = s
	}
	return out
}

// Solve solves the square system A·x = b by Gaussian elimination with
// partial pivoting. A and b are not modified: it runs SolveInPlace on
// copies. Returns ErrSingular when the matrix is (numerically)
// singular.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Cols != a.Rows || len(b) != a.Rows {
		panic("linalg: Solve requires a square system")
	}
	x := append([]float64(nil), b...)
	if err := SolveInPlace(append([]float64(nil), a.Data...), x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInPlace solves the n×n system stored row-major in a (len n²)
// with right-hand side x (len n), overwriting x with the solution and a
// with its elimination; it allocates nothing. Each row, right-hand side
// included, is first multiplied by the power of two that brings its
// largest |coefficient| into [½, 1) — exact, so the system means the
// same — and pivots are then chosen by plain magnitude (partial
// pivoting on the equilibrated rows). A pivot below 1e-13 reports
// ErrSingular, as does a non-finite solution.
func SolveInPlace(a, x []float64) error {
	n := len(x)
	if len(a) != n*n {
		panic("linalg: SolveInPlace requires an n×n matrix")
	}
	for r := 0; r < n; r++ {
		row := a[r*n : (r+1)*n]
		mx := 0.0
		for _, v := range row {
			if av := math.Abs(v); av > mx {
				mx = av
			}
		}
		if mx == 0 {
			return ErrSingular
		}
		f := scaleOf(mx)
		for c := range row {
			row[c] *= f
		}
		x[r] *= f
	}
	for col := 0; col < n; col++ {
		best, bestV := col, math.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r*n+col]); v > bestV {
				best, bestV = r, v
			}
		}
		if !(bestV >= 1e-13) {
			return ErrSingular
		}
		if best != col {
			for c := col; c < n; c++ {
				a[col*n+c], a[best*n+c] = a[best*n+c], a[col*n+c]
			}
			x[col], x[best] = x[best], x[col]
		}
		prow := a[col*n+col : (col+1)*n]
		for r := col + 1; r < n; r++ {
			row := a[r*n+col : (r+1)*n]
			f := row[0] / prow[0]
			if f == 0 {
				continue
			}
			for c, v := range prow {
				row[c] -= f * v
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s, row := x[r], a[r*n+r:(r+1)*n]
		for c, v := range row[1:] {
			s -= v * x[r+1+c]
		}
		x[r] = s / row[0]
		if math.IsNaN(x[r]) || math.IsInf(x[r], 0) {
			return ErrSingular
		}
	}
	return nil
}

// scaleOf returns 2^−e for mx = f·2^e with f ∈ [½, 1): read off the
// exponent bits when mx and the result are normal, else by Frexp.
func scaleOf(mx float64) float64 {
	if e := math.Float64bits(mx) >> 52; e > 0 && e < 2045 {
		return math.Float64frombits((2045 - e) << 52)
	}
	_, e := math.Frexp(mx)
	return math.Ldexp(1, -e)
}
