package server

import (
	"reflect"
	"testing"
	"unsafe"

	"lowdimlp/internal/engine"
)

// floatSlices appends every non-empty []float64 reachable from v
// (through structs, slices, pointers and interfaces) to out.
func floatSlices(v reflect.Value, out [][]float64) [][]float64 {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			out = floatSlices(v.Elem(), out)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			out = floatSlices(v.Field(i), out)
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Float64 {
			if v.Len() > 0 {
				out = append(out, unsafe.Slice((*float64)(v.UnsafePointer()), v.Cap()))
			}
			return out
		}
		for i := range v.Len() {
			out = floatSlices(v.Index(i), out)
		}
	}
	return out
}

// TestCachedBasisSharesNoRowsWithItsRequest: the basis runSolve hands
// to putBasis — a warm-start cache entry that outlives its request by
// up to basisCacheSize solves — shares no memory with the request's
// columnar store, for every kind on every in-process backend. Were it
// to alias a row, the entry would keep the whole store alive.
func TestCachedBasisSharesNoRowsWithItsRequest(t *testing.T) {
	for _, m := range engine.Models() {
		for _, backend := range engine.Backends() {
			t.Run(m.Kind()+"/"+backend, func(t *testing.T) {
				r := &SolveRequest{Kind: m.Kind(), Model: backend, Options: engine.Options{Seed: 3},
					Generate: &GenerateSpec{Family: m.Families()[0], N: 2000, D: 3, Seed: 5}}
				if err := materialize(r); err != nil {
					t.Fatal(err)
				}
				_, _, basis, err := runSolve(r)
				if err != nil {
					t.Fatal(err)
				}
				store := r.data.Values()
				lo := uintptr(unsafe.Pointer(unsafe.SliceData(store)))
				hi := lo + uintptr(cap(store))*8
				for _, s := range floatSlices(reflect.ValueOf(basis), nil) {
					p := uintptr(unsafe.Pointer(unsafe.SliceData(s)))
					if end := p + uintptr(cap(s))*8; p < hi && end > lo {
						t.Fatalf("the %T's slice %v lies in the request's store", basis, s)
					}
				}
			})
		}
	}
}
