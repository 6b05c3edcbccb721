package kernel

import "testing"

// TestClassFor pins the dimension → class mapping: with no switch left,
// the class a scan records is a function of its dimension alone.
func TestClassFor(t *testing.T) {
	cases := []struct {
		d    int
		want Class
	}{
		{1, ClassGeneric}, {2, ClassD2}, {3, ClassD3}, {4, ClassD4},
		{5, ClassGeneric}, {6, ClassGeneric}, {64, ClassGeneric},
	}
	for _, c := range cases {
		if got := ClassFor(c.d); got != c.want {
			t.Errorf("ClassFor(%d) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		ClassD2: "d2", ClassD3: "d3", ClassD4: "d4",
		ClassGeneric: "generic", ClassRowLoop: "rowloop",
	}
	seen := map[string]bool{}
	for _, c := range Classes() {
		s := c.String()
		if s != want[c] {
			t.Errorf("Class(%d).String() = %q, want %q", c, s, want[c])
		}
		if seen[s] {
			t.Errorf("duplicate class label %q", s)
		}
		seen[s] = true
	}
	if len(seen) != len(want) {
		t.Errorf("Classes() lists %d classes, want %d", len(seen), len(want))
	}
}

func TestCounters(t *testing.T) {
	b0, r0 := Blocks(ClassD2), Rows()
	t0 := BlocksTotal()
	Count(ClassD2, 256)
	Count(ClassD2, 100)
	Count(ClassGeneric, 7)
	if got := Blocks(ClassD2) - b0; got != 2 {
		t.Errorf("d2 blocks advanced by %d, want 2", got)
	}
	if got := Rows() - r0; got != 363 {
		t.Errorf("rows advanced by %d, want 363", got)
	}
	if got := BlocksTotal() - t0; got != 3 {
		t.Errorf("total blocks advanced by %d, want 3", got)
	}
}
