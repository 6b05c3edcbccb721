package engine_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"lowdimlp/internal/comm"
	"lowdimlp/internal/coordinator"
	"lowdimlp/internal/core"
	"lowdimlp/internal/dataset"
	"lowdimlp/internal/lptype"
	"lowdimlp/internal/mpc"
	"lowdimlp/internal/stream"
)

// kthDomain is a stub LP-type domain over numbers: a basis is a number
// b, and c violates it when c > b. Its first k−1 Solve calls return 0,
// which every constraint (all ≥ 1) violates; from the k-th on it
// returns the optimum, the largest constraint.
type kthDomain struct {
	k, calls int
	optimum  float64
}

func (d *kthDomain) Solve([]float64) (float64, error) {
	if d.calls++; d.calls >= d.k {
		return d.optimum, nil
	}
	return 0, nil
}

func (d *kthDomain) Basis(b float64) []float64          { return []float64{b} }
func (d *kthDomain) Violates(b float64, c float64) bool { return c > b }
func (d *kthDomain) CombinatorialDim() int              { return 1 }
func (d *kthDomain) VCDim() int                         { return 1 }

// float64Rows is the stub's item codec: a constraint is a row of one
// number.
var float64Rows = comm.RowCodec[float64]{
	Width: 1,
	Item:  func(row []float64) float64 { return row[0] },
	Row:   func(dst []float64, c float64) []float64 { return append(dst, c) },
}

// float64Codec is the stub's basis codec: 8 bytes.
type float64Codec struct{}

func (float64Codec) Append(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func (float64Codec) Decode(src []byte) (float64, int, error) {
	if len(src) < 8 {
		return 0, 0, errors.New("float64Codec: short buffer")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(src)), 8, nil
}

func (float64Codec) Bits(float64) int { return 64 }

// TestIterationBudgetSameOnEveryBackend: MaxIters = M means the same on
// every backend — at most M nets are solved, and each solved net is
// tested before core.ErrIterationBudget. With a domain whose k-th solve
// is the optimum, a budget of k succeeds everywhere, and a budget of
// k−1 ends everywhere with the budget error after exactly k−1 solves.
func TestIterationBudgetSameOnEveryBackend(t *testing.T) {
	const n, k, sites = 1000, 3, 3
	items := make([]float64, n)
	st := dataset.NewStore(1)
	for i := range items {
		items[i] = float64(1 + (i*7)%n)
		st.AppendRow(items[i : i+1])
	}
	backends := map[string]func(dom *kthDomain, co core.Options) (float64, error){
		"ram-core": func(dom *kthDomain, co core.Options) (float64, error) {
			b, _, err := core.Solve[float64, float64](dom, items, co)
			return b, err
		},
		"stream": func(dom *kthDomain, co core.Options) (float64, error) {
			b, _, err := stream.SolveDataset(access(dom), st, stream.Options{Core: co})
			return b, err
		},
		"coordinator": func(dom *kthDomain, co core.Options) (float64, error) {
			sw, err := lptype.ShardSiteWeights(access(dom), st, sites)
			if err != nil {
				return 0, err
			}
			b, _, err := coordinator.Solve[float64, float64](dom, sw, float64Rows, float64Codec{}, coordinator.Options{Core: co})
			return b, err
		},
		"mpc": func(dom *kthDomain, co core.Options) (float64, error) {
			b, _, err := mpc.SolveSource(access(dom), st, float64Rows, float64Codec{}, mpc.Options{Core: co, Delta: 0.5})
			return b, err
		},
	}
	for name, solve := range backends {
		for _, budget := range []int{k, k - 1} {
			dom := &kthDomain{k: k, optimum: n}
			co := core.Options{R: 2, Seed: 1, NetConst: 0.5, MaxIters: budget}
			if p := core.NewParams(n, 1, 1, co); p.Direct {
				t.Fatalf("net size %d covers the input: nothing iterates", p.M)
			}
			b, err := solve(dom, co)
			what := fmt.Sprintf("%s MaxIters=%d", name, budget)
			switch {
			case budget == k && (err != nil || b != n):
				t.Errorf("%s: basis %v, err %v; want the optimum %v", what, b, err, float64(n))
			case budget < k && !errors.Is(err, core.ErrIterationBudget):
				t.Errorf("%s: err %v, want core.ErrIterationBudget", what, err)
			}
			if dom.calls != budget {
				t.Errorf("%s: %d Domain.Solve calls, want %d", what, dom.calls, budget)
			}
		}
	}
}

func access(dom *kthDomain) lptype.RowAccess[float64, float64] {
	return lptype.NewRowAccess[float64, float64](dom, func(row []float64) float64 { return row[0] })
}
