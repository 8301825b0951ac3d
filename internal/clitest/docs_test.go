package clitest

import (
	"bufio"
	"go/ast"
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

// The documents TestDocsNameRealCode holds to the tree.
var checkedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// Passages between these two lines may name code that no longer
// exists: they describe what a change removed.
const (
	historyOpen  = "<!-- history -->"
	historyClose = "<!-- /history -->"
)

var (
	codeSpan  = regexp.MustCompile("`[^`\n]+`")
	qualified = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)`)
	testName  = regexp.MustCompile(`(?:\b([a-z][a-z0-9]*)\.)?\b((?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*)`)
	makeCmd   = regexp.MustCompile(`\bmake((?:\s+[a-z][a-z0-9-]*)+)`)
	makeRule  = regexp.MustCompile(`^([a-z][a-z0-9-]*)\s*:([^=]|$)`)
)

// goPackages maps every package name in the module to the names its
// files declare at top level, methods and test functions included.
func goPackages(t *testing.T, root string) map[string]map[string]bool {
	t.Helper()
	pkgs := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/ is its own module; testdata holds no code.
			if name := d.Name(); path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		if pkg == "main" {
			return nil
		}
		names := pkgs[pkg]
		if names == nil {
			names = map[string]bool{}
			pkgs[pkg] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl: // methods too: `pkg.Method` is shorthand docs use
				names[decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// makeTargets is the set of rules the Makefile defines.
func makeTargets(t *testing.T, root string) map[string]bool {
	t.Helper()
	f, err := os.Open(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	targets := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := makeRule.FindStringSubmatch(sc.Text()); m != nil {
			targets[m[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return targets
}

// TestDocsNameRealCode keeps the documents naming code that exists:
// every backticked `pkg.Ident` whose pkg is one of the module's
// packages is declared there; every Test/Benchmark/Fuzz name is a test
// function — in the named package when qualified; every `make X` is a
// Makefile rule. A passage that recounts removed code goes between
// historyOpen and historyClose lines.
func TestDocsNameRealCode(t *testing.T) {
	root := repoRoot()
	pkgs := goPackages(t, root)
	targets := makeTargets(t, root)
	anyPkg := func(name string) bool {
		for _, names := range pkgs {
			if names[name] {
				return true
			}
		}
		return false
	}
	for _, doc := range checkedDocs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		history := false
		for i, line := range strings.Split(string(data), "\n") {
			where := doc + ":" + strconv.Itoa(i+1)
			switch strings.TrimSpace(line) {
			case historyOpen:
				history = true
				continue
			case historyClose:
				history = false
				continue
			}
			if history {
				continue
			}
			for _, m := range testName.FindAllStringSubmatch(line, -1) {
				pkg, name := m[1], m[2]
				switch {
				case pkg == "" && !anyPkg(name):
					t.Errorf("%s: %s is no test in the module", where, name)
				case pkg != "" && !pkgs[pkg][name]:
					t.Errorf("%s: %s.%s: no such test in package %s", where, pkg, name, pkg)
				}
			}
			for _, span := range codeSpan.FindAllString(line, -1) {
				for _, m := range qualified.FindAllStringSubmatch(span, -1) {
					if names, ok := pkgs[m[1]]; ok && !names[m[2]] {
						t.Errorf("%s: %s.%s is not declared in package %s", where, m[1], m[2], m[1])
					}
				}
				for _, m := range makeCmd.FindAllStringSubmatch(span, -1) {
					for _, target := range strings.Fields(m[1]) {
						if !targets[target] {
							t.Errorf("%s: `make %s`: no such Makefile rule", where, target)
						}
					}
				}
			}
		}
		if history {
			t.Errorf("%s: %q is never closed", doc, historyOpen)
		}
	}
}
