package archtest

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// section is one "## §n Title" section of DESIGN.md: its subsection
// titles ("### …") and its text with every run of white space folded
// to one space, so a name wrapped across lines still reads whole.
type section struct {
	title string
	subs  map[string]bool
	text  string
}

var (
	sectionHeading = regexp.MustCompile(`^## §(\d+) (.+)$`)
	// designRef is a reference to DESIGN.md sections: "DESIGN.md" (or
	// "`DESIGN.md`") and one or more §n, each with an optional quoted
	// subsection title. A bare §n is the paper's numbering, not this.
	designRef  = regexp.MustCompile("DESIGN\\.md`?((?:(?:,? and |,? |, )§\\d+(?:,? \"[^\"]+\")?)+)")
	sectionRef = regexp.MustCompile(`§(\d+)(?:,? "([^"]+)")?`)
)

func fold(s string) string { return strings.Join(strings.Fields(s), " ") }

// parseDesign reads DESIGN.md's sections, keyed by number.
func parseDesign(doc string) map[string]*section {
	secs := map[string]*section{}
	var cur *section
	var text []string
	for _, ln := range strings.Split(doc, "\n") {
		if m := sectionHeading.FindStringSubmatch(ln); m != nil {
			if cur != nil {
				cur.text = fold(strings.Join(text, "\n"))
			}
			cur, text = &section{title: m[2], subs: map[string]bool{}}, nil
			secs[m[1]] = cur
			continue
		}
		if cur == nil {
			continue
		}
		if t, ok := strings.CutPrefix(ln, "### "); ok {
			cur.subs[t] = true
		}
		text = append(text, ln)
	}
	if cur != nil {
		cur.text = fold(strings.Join(text, "\n"))
	}
	return secs
}

func loadDesign(t *testing.T) map[string]*section {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	secs := parseDesign(string(doc))
	if len(secs) == 0 {
		t.Fatal("DESIGN.md has no \"## §n\" section")
	}
	return secs
}

// guardSectionFindings reports each row whose design field names no
// section of secs, or a section whose text does not list the row as
// `step/name`.
func guardSectionFindings(secs map[string]*section, gs []guard) []string {
	var out []string
	for _, g := range gs {
		id := g.step + "/" + g.name
		s, ok := secs[strings.TrimPrefix(g.design, "§")]
		switch {
		case !ok:
			out = append(out, id+": DESIGN.md has no section "+g.design)
		case !strings.Contains(s.text, fold("`"+id+"`")):
			out = append(out, id+": DESIGN.md "+g.design+" ("+s.title+") does not list the row")
		}
	}
	return out
}

// TestGuardsNameTheirSection: every archtest row names a DESIGN.md
// section that exists and lists the row, so a reorganized document
// cannot orphan a guard. A row whose section is missing, and one whose
// section does not list it, must be reported.
func TestGuardsNameTheirSection(t *testing.T) {
	secs := loadDesign(t)
	for _, f := range guardSectionFindings(secs, guards) {
		t.Error(f)
	}
	seeds := []guard{
		{step: "seed", name: "a row whose section is gone", design: "§99"},
		{step: "seed", name: "a row its section does not list", design: guards[0].design},
	}
	if got := guardSectionFindings(secs, seeds); len(got) != len(seeds) {
		t.Errorf("seeded rows reported as %q; want one finding each", got)
	}
}

// refFindings reports each DESIGN.md reference in text that names a
// section or subsection secs does not have; where says where text is.
func refFindings(secs map[string]*section, text, where string) []string {
	var out []string
	for _, m := range designRef.FindAllStringSubmatch(fold(text), -1) {
		for _, r := range sectionRef.FindAllStringSubmatch(m[1], -1) {
			s, ok := secs[r[1]]
			switch {
			case !ok:
				out = append(out, where+": "+m[0]+": DESIGN.md has no §"+r[1])
			case r[2] != "" && !s.subs[r[2]]:
				out = append(out, where+": "+m[0]+": DESIGN.md §"+r[1]+" has no subsection "+strconv.Quote(r[2]))
			}
		}
	}
	return out
}

// referringText is every text that may cite DESIGN.md: the comments of
// every Go file (tests and benchmark/ included), keyed by path, and
// the documents and CI files that point readers at a section.
func referringText(t *testing.T) map[string]string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	texts := map[string]string{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		var b strings.Builder
		for _, c := range f.Comments {
			b.WriteString(c.Text())
			b.WriteString("\n")
		}
		texts[filepath.ToSlash(rel)] = b.String()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"README.md", "EXPERIMENTS.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		b, err := os.ReadFile(filepath.Join(root, p))
		if err != nil {
			t.Fatal(err)
		}
		texts[p] = string(b)
	}
	return texts
}

// TestDesignReferencesResolve: every "DESIGN.md §n" reference in Go
// comments, README.md, EXPERIMENTS.md, ci.yml and the verify skill names
// a section of DESIGN.md, and a quoted title after it names one of
// that section's subsections. Seeded orphans must be reported; the
// paper's bare §n must not be.
func TestDesignReferencesResolve(t *testing.T) {
	secs := loadDesign(t)
	n := 0
	for where, text := range referringText(t) {
		n += len(designRef.FindAllString(fold(text), -1))
		for _, f := range refFindings(secs, text, where) {
			t.Error(f)
		}
	}
	if n == 0 {
		t.Fatal("found no DESIGN.md reference at all; the pattern or the walk is broken")
	}
	t.Logf("%d references", n)

	for _, c := range []struct {
		text  string
		bites bool
	}{
		{"see DESIGN.md §99 for the rest", true},
		{"(DESIGN.md §1, \"No such subsection\")", true},
		{"DESIGN.md §1 and §99", true},
		{"See DESIGN.md\n§98.", true},
		{"the paper's §99 and Theorem 2", false},
		{"(DESIGN.md §1, \"Guards\")", false},
	} {
		if got := refFindings(secs, c.text, "seed"); (len(got) > 0) != c.bites {
			t.Errorf("seed %q reported %q, want reported = %v", c.text, got, c.bites)
		}
	}
}
