package server

import (
	"fmt"

	"lowdimlp/internal/dataset"
	"lowdimlp/internal/engine"
)

// materialize resolves whatever carries the instance — undecoded
// inline rows, a pre-decoded Rows slice, or a Generate spec — into the
// request's columnar store, so that downstream solving, caching and
// digesting see one uniform shape. It runs on the worker pool
// (Manager.run), never on a handler goroutine: decoding a
// multi-million-row body and synthesizing a generated instance are the
// two expensive ingestion steps, and the pool bounds both by Workers.
// Chunk-uploaded instances arrive already columnar (InstanceStore.Take
// sets data) and are a no-op here.
func materialize(r *SolveRequest) error {
	if r.data != nil {
		return nil
	}
	m, err := r.model()
	if err != nil {
		return err
	}
	switch {
	case r.Generate != nil:
		inst, err := m.Generate(r.Generate.Family, r.Generate.params())
		if err != nil {
			return err
		}
		st, err := engine.Columnar(m, inst)
		if err != nil {
			return err
		}
		r.Dim = inst.Dim
		r.Objective = inst.Objective
		r.data = st
		r.Generate = nil
	case r.rawRows != nil:
		st := newKindStore(m, r.Dim)
		if err := decodeRowsJSON(r.rawRows, r.rawN, m, r.Dim, st, MaxInstanceRows); err != nil {
			return err
		}
		r.data = st
		r.rawRows = nil
	case r.Rows != nil:
		// Library-style callers that built the request in memory.
		st, err := engine.Columnar(m, engine.Instance{Dim: r.Dim, Rows: r.Rows})
		if err != nil {
			return err
		}
		r.data = st
		r.Rows = nil
	default:
		// No instance material at all — kinds with a defined empty
		// optimum (LP) run on an empty store; Validate/decodeRequest
		// rejected the rest already.
		r.data = newKindStore(m, r.Dim)
	}
	if r.data.Rows() == 0 && !m.AllowsEmpty() {
		return fmt.Errorf("empty instance")
	}
	return nil
}

// newKindStore returns an empty columnar store with the kind's row
// width at the request dimension.
func newKindStore(m engine.Model, dim int) *dataset.Store {
	return dataset.NewStore(m.RowWidth(dim))
}

// runSolve executes a validated, materialized request through the
// engine registry's columnar path and returns the rendered solution,
// the resource stats of the model that ran, and the raw final basis
// (for the warm-start cache; nil on error). There is deliberately no
// per-kind code here: the registry entry carries everything, and the
// solve scans the columnar arena directly. The basis owns its rows
// (SolveSourceBasis copies them out), so caching it does not keep
// r.data alive.
func runSolve(r *SolveRequest) (*SolveResult, *StatsPayload, any, error) {
	m, err := r.model()
	if err != nil {
		return nil, nil, nil, err
	}
	opt := r.Options
	opt.Trace = r.trace
	sol, stats, basis, err := m.SolveSourceBasis(r.Model, r.Dim, r.Objective, r.data, opt)
	if err != nil {
		return nil, &stats, nil, err
	}
	return &sol, &stats, basis, nil
}
