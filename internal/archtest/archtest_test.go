// Package archtest holds the tree's structural guards: the rules that
// keep each of Algorithm 1's parts, the library's entry point and the
// drivers' data path written once. It parses every non-test Go file of
// the repository (benchmark/ included) with go/parser, syntax only, and
// checks one table row per guard. Comments are dropped by the parser,
// so a rule can never trip on prose.
//
// A row is one of three shapes: a forbidden node in a path scope (want
// 0), an exact count of nodes that must all live in a home scope (want
// N), or a path that must not exist. Every row names the DESIGN.md
// section it protects and carries seeded sources — in memory, never on
// disk — that it must report (or, for near misses, must not), so a row
// that stops biting fails its own test. To add a guard, add a row and
// its seed here; CI runs this package as one step.
package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// file is one parsed non-test Go file; path is slash-separated and
// relative to the repository root.
type file struct {
	path string
	ast  *ast.File
}

// tree is what the rows read: the parsed files and every directory the
// walk entered.
type tree struct {
	fset  *token.FileSet
	files []*file
	dirs  []string
}

// with returns t plus one more parsed source.
func (t *tree) with(f *file) *tree {
	return &tree{fset: t.fset, files: append(append([]*file(nil), t.files...), f), dirs: t.dirs}
}

// repo parses the repository once per test binary. It walks from the
// module root (two levels up), skipping what the go tool skips:
// directories named testdata or starting with "." or "_".
var repo = sync.OnceValues(func() (*tree, error) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	t := &tree{fset: token.NewFileSet()}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
				return filepath.SkipDir
			}
			t.dirs = append(t.dirs, rel)
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		af, err := parser.ParseFile(t.fset, rel, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		t.files = append(t.files, &file{path: rel, ast: af})
		return nil
	})
	return t, err
})

func loadRepo(t *testing.T) *tree {
	t.Helper()
	tr, err := repo()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// seed is an in-memory source a row is checked against. A biting seed
// must be reported; a near miss (bites false) must not be.
type seed struct {
	path, src string
	bites     bool
	alone     bool // check the seed by itself, not added to the tree
}

// guard is one row of the table.
type guard struct {
	step   string   // the group of rows one old CI step became
	name   string   // what the row holds, in a few words
	design string   // the DESIGN.md section it protects
	in     []string // scopes read: "..." is the whole repo, "dir/..." a subtree, else one file or one directory
	out    []string // scopes left out of in
	match  func(n ast.Node) (string, bool)
	want   int    // exact number of matches in scope; 0 forbids
	home   string // scope every match must lie in, when want > 0
	value  string // what every match must render as, if set
	absent string // instead of match: a directory that must not exist
	seeds  []seed
}

func inScope(p string, scopes []string) bool {
	for _, s := range scopes {
		switch {
		case s == "...":
			return true
		case strings.HasSuffix(s, "/..."):
			if strings.HasPrefix(p, strings.TrimSuffix(s, "...")) {
				return true
			}
		case p == s || path.Dir(p) == s:
			return true
		}
	}
	return false
}

func (g *guard) reads(p string) bool { return inScope(p, g.in) && !inScope(p, g.out) }

// check returns the row's findings on tr, each prefixed with the
// path:line it is about.
func (g *guard) check(tr *tree) []string {
	var out []string
	if g.absent != "" {
		for _, d := range tr.dirs {
			if d == g.absent {
				out = append(out, d+": directory exists")
			}
		}
		for _, f := range tr.files {
			if strings.HasPrefix(f.path, g.absent+"/") {
				out = append(out, f.path+": file exists")
			}
		}
		return out
	}
	type hit struct{ at, text string }
	var hits []hit
	for _, f := range tr.files {
		if !g.reads(f.path) {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if text, ok := g.match(n); ok {
				p := tr.fset.Position(n.Pos())
				hits = append(hits, hit{p.Filename + ":" + strconv.Itoa(p.Line), text})
			}
			return true
		})
	}
	if len(hits) != g.want {
		for _, h := range hits {
			out = append(out, h.at+": "+h.text)
		}
		if g.want > 0 || len(out) == 0 {
			out = append([]string{"want " + strconv.Itoa(g.want) + " in scope, got " + strconv.Itoa(len(hits))}, out...)
		}
		return out
	}
	for _, h := range hits {
		if !inScope(strings.SplitN(h.at, ":", 2)[0], []string{g.home}) {
			out = append(out, h.at+": "+h.text+" (outside "+g.home+")")
		} else if g.value != "" && h.text != g.value {
			out = append(out, h.at+": "+h.text+" (want "+g.value+")")
		}
	}
	return out
}

// expr renders an expression in go/types' canonical spacing, so a row
// compares code, not layout.
func expr(e ast.Expr) string { return types.ExprString(e) }

// name is what an identifier or a selector names.
func name(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// leftmost is the first operand of a chain of binary expressions.
func leftmost(e ast.Expr) ast.Expr {
	for {
		b, ok := e.(*ast.BinaryExpr)
		if !ok {
			return e
		}
		e = b.X
	}
}

// callee strips the type arguments off a called function.
func callee(e ast.Expr) ast.Expr {
	switch f := e.(type) {
	case *ast.IndexExpr:
		return f.X
	case *ast.IndexListExpr:
		return f.X
	}
	return e
}

func isIdent(e ast.Expr) bool {
	_, ok := e.(*ast.Ident)
	return ok
}

// pivotCall reports whether body is the one statement
// return lptype.SolvePivot(…).
func pivotCall(body *ast.BlockStmt) bool {
	if len(body.List) != 1 {
		return false
	}
	r, ok := body.List[0].(*ast.ReturnStmt)
	if !ok || len(r.Results) != 1 {
		return false
	}
	c, ok := r.Results[0].(*ast.CallExpr)
	return ok && expr(callee(c.Fun)) == "lptype.SolvePivot"
}

// decodesInLoop reports whether body reads float64s from bytes in a
// loop: a math.Float64frombits call inside a for or range statement.
func decodesInLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			found = found || callsIn(n.Body, "math.Float64frombits")
		case *ast.RangeStmt:
			found = found || callsIn(n.Body, "math.Float64frombits")
		}
		return !found
	})
	return found
}

// callsIn reports whether body calls the function rendered as fn.
func callsIn(body *ast.BlockStmt, fn string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && expr(c.Fun) == fn {
			found = true
		}
		return !found
	})
	return found
}

func oneOf(s string, set ...string) bool {
	for _, x := range set {
		if s == x {
			return true
		}
	}
	return false
}

func containsAny(s string, subs []string) bool {
	for _, x := range subs {
		if strings.Contains(s, x) {
			return true
		}
	}
	return false
}

// selCall matches a call of a method or package function named one of
// names; minArgs is the fewest arguments a match has.
func selCall(minArgs int, names ...string) func(ast.Node) (string, bool) {
	return func(n ast.Node) (string, bool) {
		c, ok := n.(*ast.CallExpr)
		if !ok || len(c.Args) < minArgs {
			return "", false
		}
		s, ok := c.Fun.(*ast.SelectorExpr)
		if !ok || !oneOf(s.Sel.Name, names...) {
			return "", false
		}
		return expr(c), true
	}
}

// rendered matches an expression whose canonical rendering is want.
func rendered(want string) func(ast.Node) (string, bool) {
	return func(n ast.Node) (string, bool) {
		e, ok := n.(ast.Expr)
		return want, ok && expr(e) == want
	}
}

// named matches an identifier whose name contains one of subs, and a
// string literal whose value does: flag, metric and option names are
// forbidden as text, not only as code.
func named(subs ...string) func(ast.Node) (string, bool) {
	return func(n ast.Node) (string, bool) {
		switch n := n.(type) {
		case *ast.Ident:
			return n.Name, containsAny(n.Name, subs)
		case *ast.BasicLit:
			return n.Value, n.Kind == token.STRING && containsAny(n.Value, subs)
		}
		return "", false
	}
}

// lpserved's flag constructors, as the flag package spells them.
var flagFuncs = []string{"Bool", "BoolVar", "Int", "IntVar", "Int64", "Int64Var", "Uint", "UintVar", "Uint64", "Uint64Var",
	"String", "StringVar", "Float64", "Float64Var", "Duration", "DurationVar", "Func", "BoolFunc", "TextVar", "Var"}

var algorithm1Files = []string{"cmd/...", "internal/...", "deploy/...", "e2e/...", "lowdimlp.go"}

var guards = []guard{
	{
		step: "violates", name: "no per-item Violates in the drivers", design: "§16",
		in:    []string{"internal/stream/...", "internal/coordinator/...", "internal/mpc/...", "internal/engine/...", "internal/server/..."},
		match: selCall(0, "Violates"),
		seeds: []seed{{path: "internal/coordinator/seed.go", bites: true,
			src: "package coordinator\nfunc f() bool { return dom.Violates(b, c) }\n"}},
	},
	{
		step: "entry-point", name: "no typed Solve declarations", design: "§16",
		in: []string{".", "internal/engine/...", "internal/stream/..."},
		match: func(n ast.Node) (string, bool) {
			d, ok := n.(*ast.FuncDecl)
			if !ok || d.Recv != nil {
				return "", false
			}
			s := d.Name.Name
			return "func " + s, strings.HasPrefix(s, "SolveLP") || strings.HasPrefix(s, "SolveSVM") || strings.HasPrefix(s, "SolveMEB") ||
				oneOf(s, "Solve", "SolveRAM", "SolveStreaming", "SolveCoordinator", "SolveMPC")
		},
		seeds: []seed{
			{path: "seed.go", bites: true, src: "package lowdimlp\nfunc SolveMEBStreaming() {}\n"},
			{path: "internal/stream/seed.go", bites: true, src: "package stream\nfunc Solve[P, C, B any]() {}\n"},
			{path: "internal/engine/seed.go", bites: false, src: "package engine\nfunc (s Spec) SolveRAM() {}\n"},
		},
	},
	{
		step: "entry-point", name: "no typed engine dispatchers or stream.Solve", design: "§16",
		in: []string{"..."},
		match: func(n ast.Node) (string, bool) {
			s, ok := n.(*ast.SelectorExpr)
			if !ok {
				return "", false
			}
			x := name(s.X)
			return expr(s), x == "engine" && oneOf(s.Sel.Name, "SolveRAM", "SolveStreaming", "SolveCoordinator", "SolveMPC") ||
				x == "stream" && s.Sel.Name == "Solve"
		},
		seeds: []seed{
			{path: "benchmark/seed.go", bites: true, src: "package main\nvar f = engine.SolveMPC[P, C, B]\n"},
			{path: "cmd/lpsolve/seed.go", bites: true, src: "package main\nfunc f() { stream.Solve(p, st, n, opt) }\n"},
		},
	},
	{
		step: "entry-point", name: "no examples directory", design: "§16",
		absent: "examples",
		seeds:  []seed{{path: "examples/quickstart/main.go", bites: true, src: "package main\nfunc main() {}\n"}},
	},
	{
		step: "input-type", name: "no typed stream, slice stream or typed reservoir", design: "§16",
		in: []string{"..."}, out: []string{"benchmark/..."},
		match: func(n ast.Node) (string, bool) {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				return expr(n), expr(n) == "stream.Stream"
			case *ast.Ident:
				return n.Name, oneOf(n.Name, "Reservoir", "NewReservoir") ||
					containsAny(n.Name, []string{"SliceStream", "restrictStream", "restrictedStream"})
			}
			return "", false
		},
		seeds: []seed{
			{path: "internal/baseline/seed.go", bites: true, src: "package baseline\nfunc f(st stream.Stream[C]) {}\n"},
			{path: "internal/sampling/seed.go", bites: true, src: "package sampling\ntype Reservoir[T any] struct{}\n"},
			{path: "seed.go", bites: true, src: "package lowdimlp\nvar s = stream.NewSliceStream(items)\n"},
			{path: "internal/sampling/seed2.go", bites: false, src: "package sampling\nvar r = NewRowReservoir(m, w)\n"},
		},
	},
	{
		step: "site-weights", name: "no Store.Scan or Store.Weights outside lptype", design: "§17",
		in: []string{"cmd/...", "internal/...", "deploy/...", "lowdimlp.go"}, out: []string{"internal/lptype/..."},
		match: func(n ast.Node) (string, bool) {
			if s, ok := selCall(1, "Scan")(n); ok {
				return s, true
			}
			return selCall(0, "Weights")(n)
		},
		seeds: []seed{
			{path: "internal/mpc/seed.go", bites: true, src: "package mpc\nfunc f() { mm.data.Weights(mm.bases, mult, w) }\n"},
			{path: "internal/coordinator/seed.go", bites: true, src: "package coordinator\nfunc f() { s.store.Scan(s.bases, s.pending, s.mult) }\n"},
			{path: "cmd/lpsolve/seed.go", bites: false, src: "package main\nfunc f() { for sc.Scan() {} }\n"},
		},
	},
	{
		step: "run-solve", name: "exactly one runSolve call in the server", design: "§11",
		in: []string{"internal/server/..."},
		match: func(n ast.Node) (string, bool) {
			c, ok := n.(*ast.CallExpr)
			return "runSolve call", ok && name(c.Fun) == "runSolve"
		},
		want: 1, home: "internal/server/...",
		seeds: []seed{
			{path: "internal/server/seed.go", bites: true, src: "package server\nfunc f() { runSolve(req) }\n"},
			{path: "internal/server/seed2.go", bites: false, src: "package server\nvar g = runSolve\n"},
		},
	},
	{
		// A basis leaves the engine only through SolveSourceBasis, which
		// copies its rows out of the solve's input there, once; without
		// that call every warm-start entry keeps its whole input alive.
		step: "ownership", name: "one basis-row copy, in engine.SolveSourceBasis", design: "§11",
		in:    []string{"..."},
		match: selCall(0, "Own"),
		want:  1, home: "internal/engine/source.go",
		seeds: []seed{
			{path: "internal/server/seed.go", bites: true, src: "package server\nfunc f(b lp.Basis) any { return b.Own() }\n"},
			{path: "internal/server/seed2.go", bites: false, src: "package server\nvar own = lp.Basis.Own\n"},
		},
	},
	{
		step: "ingest", name: "instance data is checked only in internal/engine", design: "§7",
		in:    []string{"internal/server/...", "cmd/...", "lowdimlp.go"},
		match: selCall(1, "IsNaN", "IsInf"),
		seeds: []seed{
			{path: "internal/server/seed.go", bites: true,
				src: "package server\nfunc finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }\n"},
			{path: "internal/server/seed2.go", bites: false,
				src: "package server\n// func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }\n"},
			{path: "internal/engine/seed.go", bites: false,
				src: "package engine\nfunc finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }\n"},
		},
	},
	{
		step: "parameters", name: "one iteration budget 60·ν·r+60", design: "§1",
		in: []string{"internal/..."}, out: []string{"internal/tci/...", "internal/baseline/...", "internal/experiments/..."},
		match: rendered("60 * nu * r"), want: 1, home: "internal/core/...",
		seeds: []seed{{path: "internal/core/seed.go", bites: true, src: "package core\nfunc f() { maxIters = 60 * nu * r }\n"}},
	},
	{
		step: "parameters", name: "one multiplier n^(1÷r)", design: "§1",
		in: []string{"internal/..."}, out: []string{"internal/tci/...", "internal/baseline/...", "internal/experiments/..."},
		match: rendered("math.Pow(float64(n), 1 / float64(r))"), want: 1, home: "internal/core/...",
		seeds: []seed{
			{path: "internal/mpc/seed.go", bites: true, src: "package mpc\nvar mult = math.Pow(float64(n), 1/float64(r))\n"},
			{path: "internal/tci/seed.go", bites: false, src: "package tci\nvar mult = math.Pow(float64(n), 1/float64(r))\n"},
		},
	},
	{
		step: "parameters", name: "one ε = 1÷(10·ν·n^(1÷r))", design: "§1",
		in: []string{"internal/..."}, out: []string{"internal/tci/...", "internal/baseline/...", "internal/experiments/..."},
		match: func(n ast.Node) (string, bool) {
			b, ok := n.(*ast.BinaryExpr)
			if !ok || b.Op != token.QUO {
				return "", false
			}
			return expr(b), expr(b.X) == "1" && strings.HasPrefix(expr(b.Y), "(10 * ")
		},
		want: 1, home: "internal/core/...",
		seeds: []seed{{path: "internal/stream/seed.go", bites: true, src: "package stream\nvar eps = 1 / (10 * float64(nu) * mult) * 2\n"}},
	},
	{
		step: "parameters", name: "one net-constant default, core.DefaultNetConst", design: "§5",
		in: algorithm1Files,
		match: func(n ast.Node) (string, bool) {
			switch n := n.(type) {
			case *ast.ValueSpec:
				for _, id := range n.Names {
					if id.Name == "DefaultNetConst" {
						return "DefaultNetConst declared", true
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if name(l) == "DefaultNetConst" {
						return expr(l) + " assigned", true
					}
				}
			}
			return "", false
		},
		want: 1, home: "internal/core/...",
		seeds: []seed{
			{path: "internal/core/seed.go", bites: true, src: "package core\nvar DefaultNetConst = 8.0\n"},
			{path: "internal/engine/seed.go", bites: true, src: "package engine\nfunc f() { core.DefaultNetConst = 0.5 }\n"},
			{path: "internal/engine/seed2.go", bites: false, src: "package engine\nvar c = core.DefaultNetConst\n"},
		},
	},
	{
		step: "parameters", name: "one ship-all rule, Direct: n ≤ 2m+1", design: "§5",
		in: algorithm1Files,
		match: func(n ast.Node) (string, bool) {
			kv, ok := n.(*ast.KeyValueExpr)
			if !ok {
				return "", false
			}
			k, ok := kv.Key.(*ast.Ident)
			return expr(kv.Value), ok && k.Name == "Direct"
		},
		want: 1, home: "internal/core/...", value: "float64(n) <= 2 * m + 1",
		seeds: []seed{
			{path: "internal/stream/seed.go", bites: false, src: "package stream\nfunc f() {\n\tswitch {\n\tcase s.p.Direct:\n\t}\n}\n"},
			{path: "internal/stream/seed2.go", bites: true, src: "package stream\nvar p = Params{Direct: float64(n) <= 2*m+1}\n"},
			{path: "internal/core/seed.go", bites: true, src: "package core\nvar p = Params{Direct: n <= m}\n"},
			{path: "internal/core/seed.go", bites: true, alone: true, src: "package core\nvar p = Params{Direct: n < m}\n"},
		},
	},
	{
		step: "parameters", name: "no net-constant fallback", design: "§5",
		in: []string{"internal/engine/...", "internal/epsnet/...", "internal/experiments/...", "internal/server/..."},
		match: func(n ast.Node) (string, bool) {
			var lhs []string
			var rhs []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					return "", false
				}
				for _, l := range n.Lhs {
					lhs = append(lhs, name(l))
				}
				rhs = n.Rhs
			case *ast.ValueSpec:
				for _, id := range n.Names {
					lhs = append(lhs, id.Name)
				}
				rhs = n.Values
			default:
				return "", false
			}
			for i, l := range lhs {
				if i >= len(rhs) || !oneOf(l, "nc", "c", "netConst", "NetConst") {
					continue
				}
				if lit, ok := leftmost(rhs[i]).(*ast.BasicLit); ok && (lit.Kind == token.INT || lit.Kind == token.FLOAT) {
					if v, err := strconv.ParseFloat(lit.Value, 64); err == nil && (v == 0.5 || v == 8) {
						return l + " = " + expr(rhs[i]), true
					}
				}
			}
			return "", false
		},
		seeds: []seed{
			{path: "internal/engine/seed.go", bites: true, src: "package engine\nfunc f() {\n\tif nc == 0 {\n\t\tnc = 0.5\n\t}\n}\n"},
			{path: "internal/experiments/seed.go", bites: true, src: "package experiments\nfunc f() { o.NetConst = 8 }\n"},
			{path: "internal/server/seed.go", bites: false, src: "package server\nfunc f() { c := 80 }\n"},
		},
	},
	{
		step: "parameters", name: "no opt-in knob for coordinator site fan-out", design: "§1",
		in: algorithm1Files,
		match: func(n ast.Node) (string, bool) {
			switch n := n.(type) {
			case *ast.Ident:
				return n.Name, strings.Contains(n.Name, "runSites")
			case *ast.CompositeLit:
				if n.Type == nil || expr(n.Type) != "coordinator.Options" {
					return "", false
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok && name(kv.Key) == "Parallel" {
						return expr(n.Type) + "{Parallel: …}", true
					}
				}
			}
			return "", false
		},
		seeds: []seed{
			{path: "internal/coordinator/seed.go", bites: true, src: "package coordinator\nfunc runSitesParallel() {}\n"},
			{path: "internal/engine/seed.go", bites: true, src: "package engine\nvar o = coordinator.Options{K: 3, Parallel: true}\n"},
		},
	},
	{
		// A round's exchanges are in flight together (comm.EachSite); a
		// loop that calls one per iteration addresses the sites one after
		// another. lpmark's timedTransport forwards calls, so benchmark/
		// is exempt.
		step: "rounds", name: "no serial round loop", design: "§4",
		in: []string{"..."}, out: []string{"benchmark/..."},
		match: func(n ast.Node) (string, bool) {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return "", false
			}
			var call string
			ast.Inspect(body, func(m ast.Node) bool {
				if c, ok := m.(*ast.CallExpr); ok && call == "" && oneOf(name(c.Fun), "RoundTrip", "exchange", "exchangeTimeout") {
					call = expr(c)
				}
				return call == ""
			})
			return "loop calls " + call, call != ""
		},
		seeds: []seed{
			{path: "internal/coordinator/seed.go", bites: true,
				src: "package coordinator\nfunc (s *star) All() {\n\tfor i := range s.tr.Sites() {\n\t\ts.tr.RoundTrip(i, comm.FrameShipAll, nil)\n\t}\n}\n"},
			{path: "internal/comm/httptransport/seed.go", bites: true,
				src: "package httptransport\nfunc (r *run) Begin() {\n\tfor i := 0; i < k; i++ {\n\t\tgo func() { r.fleet.exchange(i, f) }()\n\t}\n}\n"},
			{path: "internal/coordinator/seed2.go", bites: false,
				src: "package coordinator\nfunc (s *star) All() error {\n\treturn comm.EachSite(k, func(i int) error { _, err := s.tr.RoundTrip(i, comm.FrameShipAll, nil); return err })\n}\n"},
			{path: "benchmark/seed.go", bites: false,
				src: "package main\nfunc f() {\n\tfor i := range k {\n\t\tt.Transport.RoundTrip(i, typ, nil)\n\t}\n}\n"},
		},
	},
	{
		step: "rules", name: "Algorithm 1's rules only in core.Run", design: "§1",
		in: []string{"..."}, out: []string{"internal/core/..."},
		match: func(n ast.Node) (string, bool) {
			switch n := n.(type) {
			case *ast.IncDecStmt:
				return expr(n.X) + n.Tok.String(), oneOf(name(n.X), "Successes", "Failures")
			case *ast.AssignStmt:
				return expr(n.Lhs[0]) + " +=", n.Tok == token.ADD_ASSIGN && oneOf(name(n.Lhs[0]), "Successes", "Failures")
			case *ast.Ident:
				return n.Name, oneOf(n.Name, "ErrRoundFailed", "ErrIterationBudget")
			}
			return selCall(0, "Success")(n)
		},
		seeds: []seed{
			{path: "internal/mpc/seed.go", bites: true, src: "package mpc\nfunc f() { stats.Successes++ }\n"},
			{path: "benchmark/seed.go", bites: true, src: "package main\nvar e = core.ErrIterationBudget\n"},
			{path: "internal/stream/seed.go", bites: true, src: "package stream\nfunc f() bool { return s.p.Success(wS, wV) }\n"},
		},
	},
	{
		step: "stats", name: "Algorithm 1's counts declared only in core.RunStats", design: "§4",
		in: []string{"..."}, out: []string{"internal/core/...", "benchmark/..."},
		match: func(n ast.Node) (string, bool) {
			var ids []*ast.Ident
			switch n := n.(type) {
			case *ast.Field:
				ids = n.Names
			case *ast.ValueSpec:
				ids = n.Names
			}
			for _, id := range ids {
				if oneOf(id.Name, "Successes", "Failures", "NetSize", "DirectSolve") {
					return id.Name + " declared", true
				}
			}
			return "", false
		},
		seeds: []seed{
			{path: "internal/coordinator/seed.go", bites: true, src: "package coordinator\ntype Stats struct {\n\tK, NetSize int\n}\n"},
			{path: "internal/mpc/seed.go", bites: false, src: "package mpc\nvar s = Stats{RunStats: core.RunStats{NetSize: 3}}\n"},
		},
	},
	{
		step: "spill", name: "no spill path, cache tier or max-latency gauge", design: "§11",
		in: []string{"..."}, out: []string{"benchmark/..."},
		match: named("CacheTier", "EnableTier", "SpillRows", "EnableSpill", "ReopenShardWriter", "cache-tier", "spill-rows", "solve_seconds_max"),
		seeds: []seed{
			{path: "cmd/lpserved/seed.go", bites: true, src: "package main\nvar tier = flag.String(\"cache-tier\", \"\", \"\")\n"},
			{path: "internal/server/seed.go", bites: true, src: "package server\ntype Config struct{ SpillRows int }\n"},
			{path: "internal/server/seed2.go", bites: true, src: "package server\nconst m = \"lpserved_solve_seconds_max\"\n"},
		},
	},
	{
		step: "knobs", name: "no admission shedding or fixed-tuning flags", design: "§11",
		in: []string{"..."}, out: []string{"benchmark/..."},
		// Flag names that are also everyday words ("queue", and
		// "basis-cache" inside the doctor's frontend-basis-cache-cold
		// rule) are forbidden only as the whole literal.
		match: named("AdmissionRows", "admitRows", "ErrOverloaded", "JobsShed", "jobs_shed", "admission-rows",
			"QueueDepth", "BasisCacheSize", "TraceBuffer", "InstanceTTL", "FleetTTL", "MaxInstances",
			"SessionTTL", "MaxSessions", "MaxFrameBytes",
			`"queue"`, `"basis-cache"`, "trace-buffer", "instance-ttl", "session-ttl", "fleet-ttl"),
		seeds: []seed{
			{path: "cmd/lpserved/seed.go", bites: true, src: "package main\nvar q = flag.Int(\"queue\", 0, \"\")\n"},
			{path: "cmd/lpserved/seed2.go", bites: true, src: "package main\nvar b = flag.Int(\"basis-cache\", 256, \"\")\n"},
			{path: "internal/server/seed.go", bites: true, src: "package server\ntype Config struct{ AdmissionRows int64 }\n"},
			{path: "internal/server/seed2.go", bites: true, src: "package server\nvar ErrOverloaded = errors.New(\"shed\")\n"},
			{path: "internal/server/seed3.go", bites: true, src: "package server\ntype WorkerConfig struct{ SessionTTL time.Duration }\n"},
			{path: "internal/lpstat/seed.go", bites: true, src: "package lpstat\nfunc f() { _ = m.Sum(\"lpserved_jobs_shed_total\") }\n"},
			{path: "internal/lpstat/seed2.go", bites: false, src: "package lpstat\nconst rule = \"frontend-basis-cache-cold\"\n"},
			{path: "internal/server/seed4.go", bites: false, src: "package server\nconst state = \"queued\"\n"},
		},
	},
	{
		// A constraint crosses the wire as its row, through
		// comm.RowCodec: no kind declares an item codec of its own, the
		// engine Spec has no ItemCodec field, and the one function that
		// decodes wire rows (float64s read in a loop) is in comm. Basis
		// codecs stay per kind; dataset files have their own reader.
		step: "wire", name: "one constraint codec", design: "§9",
		in: []string{"cmd/...", "internal/...", "lowdimlp.go"}, out: []string{"internal/dataset/..."},
		match: func(n ast.Node) (string, bool) {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if oneOf(n.Name.Name, "HalfspaceCodec", "ExampleCodec", "PointCodec") {
					return "type " + n.Name.Name, true
				}
				if st, ok := n.Type.(*ast.StructType); ok && n.Name.Name == "Spec" {
					for _, f := range st.Fields.List {
						for _, id := range f.Names {
							if id.Name == "ItemCodec" {
								return "Spec field ItemCodec", true
							}
						}
					}
				}
			case *ast.FuncDecl:
				fn := n.Name.Name
				if n.Recv != nil {
					fn = expr(n.Recv.List[0].Type) + "." + fn
				}
				if n.Body != nil && !strings.Contains(fn, "BasisCodec.") {
					return "row decoder " + fn, decodesInLoop(n.Body)
				}
			}
			return "", false
		},
		want: 1, home: "internal/comm",
		seeds: []seed{
			{path: "internal/meb/seed.go", bites: true, src: "package meb\ntype PointCodec struct{ Dim int }\n"},
			{path: "internal/engine/seed.go", bites: true,
				src: "package engine\ntype Spec[P, C, B any] struct {\n\tItemCodec func(dim int) comm.Codec[C]\n}\n"},
			{path: "internal/svm/seed.go", bites: true,
				src: "package svm\nfunc (c exampleCodec) Decode(src []byte) (Example, int, error) {\n\tx := make([]float64, c.Dim)\n\tfor i := range x {\n\t\tx[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))\n\t}\n\treturn Example{X: x}, 8 * c.Dim, nil\n}\n"},
			{path: "internal/coordinator/seed.go", bites: true,
				src: "package coordinator\nfunc decodeReply(rep []byte, arena []float64) {\n\tfor i := range arena {\n\t\tarena[i] = math.Float64frombits(binary.LittleEndian.Uint64(rep[8*i:]))\n\t}\n}\n"},
			{path: "internal/lp/seed.go", bites: false,
				src: "package lp\ntype BasisCodec struct{ Dim int }\nfunc (c BasisCodec) Decode(src []byte) (Basis, int, error) {\n\tx := make([]float64, c.Dim)\n\tfor i := range x {\n\t\tx[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))\n\t}\n\treturn Basis{Sol: Solution{X: x}}, 8 * c.Dim, nil\n}\n"},
			{path: "internal/dataset/seed.go", bites: false,
				src: "package dataset\nfunc fill(dst []float64, raw []byte) {\n\tfor j := range dst {\n\t\tdst[j] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*j:]))\n\t}\n}\n"},
		},
	},
	{
		// svm and meb supply only a small solve; lptype.SolvePivot is
		// their one large solve. A second iterative basis solver shows
		// as a Domain.Solve that does more than call it, a recursion
		// (Welzl's) or a Gram-system solve of its own (Wolfe's corral).
		step: "basis-solver", name: "one basis loop for svm and meb", design: "§15",
		in: []string{"internal/svm/...", "internal/meb/..."},
		match: func(n ast.Node) (string, bool) {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return "", false
				}
				if n.Recv != nil && n.Name.Name == "Solve" && strings.Contains(expr(n.Recv.List[0].Type), "Domain") && !pivotCall(n.Body) {
					return "Domain.Solve is not one lptype.SolvePivot call", true
				}
				self := false
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok && name(callee(c.Fun)) == n.Name.Name &&
						(n.Recv == nil) == isIdent(callee(c.Fun)) {
						self = true
					}
					return !self
				})
				return "func " + n.Name.Name + " calls itself", self
			case *ast.CallExpr:
				return expr(n.Fun), expr(n.Fun) == "linalg.Solve"
			}
			return "", false
		},
		seeds: []seed{
			{path: "internal/meb/seed.go", bites: true,
				src: "package meb\nfunc (d *Domain) Solve(pts []Point) (Basis, error) {\n\tb, ok := pivotSolve(pts)\n\tif !ok {\n\t\tb, _ = welzl(pts, nil)\n\t}\n\treturn Basis{B: b}, nil\n}\n"},
			{path: "internal/meb/seed2.go", bites: true,
				src: "package meb\nfunc welzl(p, r []Point) (Ball, error) {\n\tb, err := welzl(p[:len(p)-1], r)\n\treturn b, err\n}\n"},
			{path: "internal/svm/seed.go", bites: true,
				src: "package svm\nfunc affineMinNorm(zs [][]float64, corral []int) ([]float64, error) {\n\tsol, err := linalg.Solve(m, rhs)\n\treturn sol[1:], err\n}\n"},
			{path: "internal/svm/seed2.go", bites: false,
				src: "package svm\nfunc (d *Domain) Solve(examples []Example) (Basis, error) {\n\treturn lptype.SolvePivot[Example, Basis](d, examples)\n}\n"},
			{path: "internal/meb/seed3.go", bites: false,
				src: "package meb\nfunc Solve(pts []Point) (Ball, error) {\n\tb, err := NewDomain(len(pts[0])).Solve(pts)\n\treturn b.B, linalg.SolveInPlace(a, x)\n}\n"},
		},
	},
	{
		step: "spill", name: "11 lpserved flags", design: "§11",
		in: []string{"cmd/lpserved"},
		match: func(n ast.Node) (string, bool) {
			c, ok := n.(*ast.CallExpr)
			if !ok {
				return "", false
			}
			s, ok := c.Fun.(*ast.SelectorExpr)
			return expr(c.Fun), ok && name(s.X) == "flag" && oneOf(s.Sel.Name, flagFuncs...)
		},
		want: 11, home: "cmd/lpserved",
		seeds: []seed{{path: "cmd/lpserved/seed.go", bites: true, src: "package main\nvar spill = flag.Int(\"spill-rows\", 0, \"\")\n"}},
	},
}

// TestGuards runs every row over the repository, grouped by the CI step
// it replaced.
func TestGuards(t *testing.T) {
	tr := loadRepo(t)
	for i := range guards {
		g := &guards[i]
		t.Run(g.step+"/"+g.name, func(t *testing.T) {
			for _, p := range g.check(tr) {
				t.Errorf("DESIGN.md %s: %s", g.design, p)
			}
		})
	}
}

// TestGuardSeeds is each row's own mutation test: every biting seed is
// reported, every near miss is not, and every biting seed turned into
// a comment is not.
func TestGuardSeeds(t *testing.T) {
	tr := loadRepo(t)
	for i := range guards {
		g := &guards[i]
		t.Run(g.step+"/"+g.name, func(t *testing.T) {
			if !hasBitingSeed(g) {
				t.Fatal("row has no biting seed")
			}
			for _, s := range g.seeds {
				if s.bites && g.absent == "" && !g.reads(s.path) {
					t.Errorf("biting seed %s is outside the row's scope", s.path)
				}
				checkSeed(t, g, tr, s)
				if s.bites && g.absent == "" {
					checkSeed(t, g, tr, commented(s))
				}
			}
		})
	}
}

func hasBitingSeed(g *guard) bool {
	for _, s := range g.seeds {
		if s.bites {
			return true
		}
	}
	return false
}

// commented is s with every line after the package clause turned into
// a comment: a mention of the forbidden code in prose.
func commented(s seed) seed {
	pkg, body, _ := strings.Cut(s.src, "\n")
	s.src = pkg + "\n// " + strings.ReplaceAll(strings.TrimSuffix(body, "\n"), "\n", "\n// ") + "\n"
	s.path = strings.TrimSuffix(s.path, ".go") + "_comment.go"
	s.bites = false
	return s
}

func checkSeed(t *testing.T, g *guard, tr *tree, s seed) {
	t.Helper()
	af, err := parser.ParseFile(tr.fset, s.path, s.src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("seed %s: %v", s.path, err)
	}
	f := &file{path: s.path, ast: af}
	in := tr.with(f)
	if s.alone {
		in = &tree{fset: tr.fset, files: []*file{f}}
	}
	reported := false
	for _, p := range g.check(in) {
		reported = reported || strings.HasPrefix(p, s.path+":")
	}
	if reported != s.bites {
		t.Errorf("seed %s reported = %v, want %v:\n%s", s.path, reported, s.bites, s.src)
	}
}

// TestGuardsSeeTheTree fails when a moved directory or a broken walk
// would let every row pass on nothing: the walk must reach the files
// the rows are about, and every row's scope must hold a parsed file.
func TestGuardsSeeTheTree(t *testing.T) {
	tr := loadRepo(t)
	seen := map[string]bool{}
	for _, f := range tr.files {
		seen[f.path] = true
	}
	for _, p := range []string{"internal/core/driver.go", "cmd/lpserved/main.go", "benchmark/main.go"} {
		if !seen[p] {
			t.Errorf("walk did not parse %s", p)
		}
	}
	for i := range guards {
		g := &guards[i]
		if g.absent != "" {
			continue
		}
		n := 0
		for _, f := range tr.files {
			if g.reads(f.path) {
				n++
			}
		}
		if n == 0 {
			t.Errorf("row %q reads no file", g.name)
		}
	}
	t.Logf("%d files, %d rows", len(tr.files), len(guards))
}
