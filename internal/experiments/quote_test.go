package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenSections splits quick.golden into its experiments' sections:
// each runs from its "=== ID — …" header to the last non-blank line
// before the next header.
func goldenSections(golden string) map[string]string {
	secs := map[string]string{}
	var id string
	var cur []string
	flush := func() {
		for len(cur) > 0 && cur[len(cur)-1] == "" {
			cur = cur[:len(cur)-1]
		}
		if id != "" {
			secs[id] = strings.Join(cur, "\n")
		}
	}
	for _, ln := range strings.Split(golden, "\n") {
		if strings.HasPrefix(ln, "=== ") {
			flush()
			id, cur = strings.Fields(ln)[1], nil
		}
		cur = append(cur, ln)
	}
	flush()
	return secs
}

// quickBlockPrefix opens a fenced block that quotes a section of
// quick.golden: "```text quick E1".
const quickBlockPrefix = "```text quick "

// quotedQuickTables reports every way doc's quick-run blocks differ
// from golden: a block that is not its section byte for byte, a block
// that names no section, a section quoted twice or never, a block that
// is not closed.
func quotedQuickTables(doc, golden string) []string {
	secs := goldenSections(golden)
	quoted := map[string]int{}
	var out []string
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		id, ok := strings.CutPrefix(lines[i], quickBlockPrefix)
		if !ok {
			continue
		}
		start := i + 1
		for i++; i < len(lines) && lines[i] != "```"; i++ {
		}
		if i == len(lines) {
			out = append(out, fmt.Sprintf("line %d: block quick %s is not closed", start, id))
			break
		}
		quoted[id]++
		want, ok := secs[id]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("line %d: quick.golden has no section %s", start, id))
		case strings.Join(lines[start:i], "\n") != want:
			out = append(out, fmt.Sprintf("line %d: block quick %s differs from quick.golden's section %s%s", start, id, id, firstDiff(lines[start:i], strings.Split(want, "\n"))))
		}
	}
	for id := range secs {
		if quoted[id] != 1 {
			out = append(out, fmt.Sprintf("section %s of quick.golden is quoted %d times, want 1", id, quoted[id]))
		}
	}
	return out
}

func firstDiff(got, want []string) string {
	for j := 0; j < max(len(got), len(want)); j++ {
		var g, w string
		if j < len(got) {
			g = got[j]
		}
		if j < len(want) {
			w = want[j]
		}
		if g != w {
			return fmt.Sprintf(" at its line %d:\n got: %q\nwant: %q", j+1, g, w)
		}
	}
	return ""
}

// TestExperimentsQuotesQuickGolden: every lpbench table EXPERIMENTS.md
// quotes from a quick run is testdata/quick.golden's section byte for
// byte, and every section is quoted once, so the document cannot drift
// from the numbers TestQuickSuite pins. A one-digit edit of a quoted
// table must be reported.
func TestExperimentsQuotesQuickGolden(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/quick.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range quotedQuickTables(string(doc), string(golden)) {
		t.Error("EXPERIMENTS.md " + f)
	}

	// Seeded edit: one digit of E2's table, 7680.0 → 7681.0.
	const cell = "30000  2  2  1       7680.0"
	if !strings.Contains(string(doc), cell) {
		t.Fatalf("EXPERIMENTS.md no longer quotes the seeded cell %q", cell)
	}
	edited := strings.Replace(string(doc), cell, strings.Replace(cell, "7680.0", "7681.0", 1), 1)
	found := quotedQuickTables(edited, string(golden))
	if len(found) != 1 || !strings.Contains(found[0], "quick E2 differs") {
		t.Errorf("a one-digit edit of E2's quoted table was reported as %q, want one difference in E2", found)
	}
}
