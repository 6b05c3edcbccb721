package engine_test

import (
	"testing"

	"lowdimlp/internal/engine"
	_ "lowdimlp/internal/models" // populate the registry
)

// TestVerifyBasisSource pins the warm-start verification pass: a basis
// re-verified against the instance it came from renders the identical
// solution, while a changed instance or a foreign basis value refuses
// the warm start instead of returning a wrong answer.
func TestVerifyBasisSource(t *testing.T) {
	for _, m := range engine.Models() {
		m := m
		t.Run(m.Kind(), func(t *testing.T) {
			t.Parallel()
			inst := conformanceInstance(t, m, 700, 41)
			st, err := engine.Columnar(m, inst)
			if err != nil {
				t.Fatal(err)
			}
			opt := engine.Options{R: 2, Seed: 9}
			cold, _, basis, err := m.SolveSourceBasis(engine.BackendStream, inst.Dim, inst.Objective, st, opt)
			if err != nil {
				t.Fatal(err)
			}
			if basis == nil {
				t.Fatal("SolveSourceBasis returned nil basis")
			}
			warm, ok, err := m.VerifyBasisSource(inst.Dim, inst.Objective, st, basis)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatal("basis must verify against its own instance")
			}
			assertSolutionsIdentical(t, m.Kind()+" warm", cold, warm)
			if _, ok, _ := m.VerifyBasisSource(inst.Dim, inst.Objective, st, 42); ok {
				t.Fatal("foreign basis value must not verify")
			}
		})
	}
}

// TestVerifyBasisSourceRejectsViolator: adding a point outside the
// cached ball makes the verification pass fail (ok=false), forcing the
// cold path — warm starts never change answers.
func TestVerifyBasisSourceRejectsViolator(t *testing.T) {
	m, ok := engine.Lookup("meb")
	if !ok {
		t.Fatal("meb not registered")
	}
	inst := conformanceInstance(t, m, 700, 41)
	st, err := engine.Columnar(m, inst)
	if err != nil {
		t.Fatal(err)
	}
	_, _, basis, err := m.SolveSourceBasis(engine.BackendStream, inst.Dim, nil, st, engine.Options{R: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	st.AppendRow([]float64{100, 100, 100}) // far outside the ball
	if _, ok, err := m.VerifyBasisSource(inst.Dim, nil, st, basis); err != nil || ok {
		t.Fatalf("stale basis verified against grown instance (ok=%v err=%v)", ok, err)
	}
}
