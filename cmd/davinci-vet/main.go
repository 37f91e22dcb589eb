// Command davinci-vet is the repo's custom static checker, run in CI next
// to go vet. It is stdlib-only (go/parser + go/ast — no x/tools
// dependency) and enforces two repo invariants the ordinary type system
// cannot:
//
//  1. Sealed programs are immutable. A compiled plan's instruction stream
//     (ops.Plan.Prog) is shared by the plan cache, replayed concurrently,
//     and analyzed by lint/perf at seal time — mutating it afterwards
//     silently invalidates every cached analysis. Only internal/opt, which
//     rewrites programs before they are sealed and re-proves them through
//     the translation-validation gate, may touch an instruction stream
//     reached through a .Prog field: everywhere else, calls like
//     x.Prog.Emit(...) or writes to x.Prog.Instrs are errors.
//
//  2. Metrics come from the canonical vocabulary. Every literal metric
//     name passed to obs Counter/Gauge/Histogram constructors must be in
//     obs.CanonicalMetricNames, every literal label key in
//     obs.CanonicalLabelKeys, and label lists must have even length —
//     ad-hoc names and keys fracture the BENCH_<rev>.json join surface.
//     Span names are held to the same bar: every literal name passed to
//     StartSpan must be in obs.CanonicalSpanNames and the trailing
//     attribute list must have even length, so the span taxonomy in the
//     JSONL/Perfetto exports stays closed and joinable.
//
// Usage:
//
//	go run ./cmd/davinci-vet ./...
//
// Arguments are directories or "dir/..." patterns relative to the module
// root; findings print as file:line: message and any finding exits 1.
// Test files and testdata directories are exempt from both rules.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"davinci/internal/obs"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		args = []string{"./..."}
	}
	findings, err := vet(".", args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "davinci-vet: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// finding is one diagnostic, formatted file:line: message.
type finding struct {
	pos token.Position
	msg string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d: %s", f.pos.Filename, f.pos.Line, f.msg)
}

// vet expands the argument patterns under root and checks every non-test
// Go file found, returning the findings sorted in walk order.
func vet(root string, patterns []string) ([]finding, error) {
	dirs, err := expand(root, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var findings []finding
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			path := filepath.Join(dir, name)
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return nil, err
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return nil, err
			}
			findings = append(findings, checkFile(fset, file, filepath.ToSlash(rel))...)
		}
	}
	return findings, nil
}

// expand resolves "dir/..." patterns to the list of directories to check,
// skipping testdata, vendor and dot-directories.
func expand(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		base, recursive := pat, false
		if strings.HasSuffix(pat, "/...") {
			base, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		base = filepath.Join(root, base)
		if !recursive {
			add(base)
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return fs.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// checkFile runs both rules over one parsed file. pkgDir is the file's
// directory relative to the module root ("internal/opt", "cmd/davinci-sim").
func checkFile(fset *token.FileSet, file *ast.File, pkgDir string) []finding {
	var findings []finding
	report := func(n ast.Node, format string, args ...any) {
		findings = append(findings, finding{pos: fset.Position(n.Pos()), msg: fmt.Sprintf(format, args...)})
	}
	optPkg := pkgDir == "internal/opt" || strings.HasPrefix(pkgDir, "internal/opt/")
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if optPkg {
				return true
			}
			for _, lhs := range n.Lhs {
				if isProgField(lhs, "Instrs") {
					report(lhs, "write to a sealed program's instruction stream (%s); only internal/opt may rewrite programs", render(lhs))
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !optPkg && strings.HasPrefix(sel.Sel.Name, "Emit") && isProgField(sel.X, "Prog") {
				report(n, "emit into a sealed program (%s.%s); only internal/opt may rewrite programs", render(sel.X), sel.Sel.Name)
			}
			checkLabels(n, sel, report)
			checkSpan(n, sel, report)
		}
		return true
	})
	return findings
}

// isProgField reports whether expr is a selector ending in .<field> whose
// receiver is itself a field access — x.Prog.Instrs, pl.Prog — i.e. a
// program reached through a struct field rather than a local *cce.Program
// still being built.
func isProgField(expr ast.Expr, field string) bool {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if field == "Prog" {
		return sel.Sel.Name == "Prog"
	}
	return sel.Sel.Name == field && isProgField(sel.X, "Prog")
}

// checkLabels enforces the canonical metric vocabulary on
// Counter/Gauge/Histogram constructor calls: the name check runs on every
// call with a literal first argument (even when the labels are spread
// dynamically), the label checks only where the keys are literal. Calls
// with a computed name are skipped — they are some other type's method,
// or dynamic in a way this tool cannot judge.
func checkLabels(call *ast.CallExpr, sel *ast.SelectorExpr, report func(ast.Node, string, ...any)) {
	var labelStart int
	switch sel.Sel.Name {
	case "Counter", "Gauge":
		labelStart = 1
	case "Histogram":
		labelStart = 2
	default:
		return
	}
	if len(call.Args) < labelStart {
		return
	}
	name, ok := stringLit(call.Args[0])
	if !ok {
		return
	}
	if !obs.CanonicalMetricNames[name] {
		report(call.Args[0], "non-canonical metric name %q on %s (add it to obs.CanonicalMetricNames deliberately, not ad hoc)",
			name, sel.Sel.Name)
	}
	if len(call.Args) <= labelStart || call.Ellipsis.IsValid() {
		return
	}
	labels := call.Args[labelStart:]
	if len(labels)%2 != 0 {
		report(call, "odd metric label list on %s %q: want key, value pairs", sel.Sel.Name, name)
		return
	}
	for i := 0; i < len(labels); i += 2 {
		key, ok := stringLit(labels[i])
		if !ok {
			continue
		}
		if !obs.CanonicalLabelKeys[key] {
			report(labels[i], "non-canonical metric label key %q on %s %q (canonical: %s)",
				key, sel.Sel.Name, name, canonicalList())
		}
	}
}

// checkSpan enforces the canonical span vocabulary on StartSpan calls:
// a literal span name must be in obs.CanonicalSpanNames and the trailing
// key/value attribute list must have even length. Computed names are
// skipped, same as for metrics.
func checkSpan(call *ast.CallExpr, sel *ast.SelectorExpr, report func(ast.Node, string, ...any)) {
	if sel.Sel.Name != "StartSpan" || len(call.Args) < 1 {
		return
	}
	name, ok := stringLit(call.Args[0])
	if !ok {
		return
	}
	if !obs.CanonicalSpanNames[name] {
		report(call.Args[0], "non-canonical span name %q on StartSpan (add it to obs.CanonicalSpanNames deliberately, not ad hoc)", name)
	}
	if !call.Ellipsis.IsValid() && len(call.Args[1:])%2 != 0 {
		report(call, "odd span attribute list on StartSpan %q: want key, value pairs", name)
	}
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

func canonicalList() string {
	keys := make([]string, 0, len(obs.CanonicalLabelKeys))
	for k := range obs.CanonicalLabelKeys {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return strings.Join(keys, ", ")
}

// render prints a selector chain for diagnostics (best effort).
func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	}
	return "<expr>"
}
