package clitest

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
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
	member    = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)`)
	testName  = regexp.MustCompile(`(?:\b([a-z][a-z0-9]*)\.)?\b((?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*)`)
	makeCmd   = regexp.MustCompile(`\bmake((?:\s+[a-z][a-z0-9-]*)+)`)
	makeRule  = regexp.MustCompile(`^([a-z][a-z0-9-]*)\s*:([^=]|$)`)
	repoPath  = regexp.MustCompile(`(?:^|[^\w./-])(?:p2prank/)?((?:internal|cmd|examples|bench)/[\w./-]*)`)
	flagToken = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:=.*)?$`)
	shellSep  = regexp.MustCompile(`\|\||&&|[|;]`)
	// roadmapItem is a citation of a ROADMAP item by number; the
	// numbers change whenever the ROADMAP is re-anchored.
	roadmapItem = regexp.MustCompile(`(?i)\broadmap(?:'s)?\s+items?\s+\d+`)
)

// typeRef names a type: its package and its name.
type typeRef struct{ pkg, name string }

// typeDecl is what a `pkg.Type.Member` span may name: the fields and
// methods declared on a type, and the types it embeds (or aliases),
// whose members it has too.
type typeDecl struct {
	members map[string]bool
	embeds  []typeRef
}

// module is what the module's Go files declare, by package name.
type module struct {
	// names holds every top-level name, methods and test functions
	// included.
	names map[string]map[string]bool
	// types holds every type's members.
	types map[string]map[string]*typeDecl
}

// typeOf resolves a type expression to the named type it spells, in
// package pkg when unqualified.
func typeOf(e ast.Expr, pkg string) (typeRef, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return typeRef{pkg, e.Name}, true
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return typeRef{x.Name, e.Sel.Name}, true
		}
	case *ast.StarExpr:
		return typeOf(e.X, pkg)
	case *ast.IndexExpr:
		return typeOf(e.X, pkg)
	case *ast.IndexListExpr:
		return typeOf(e.X, pkg)
	}
	return typeRef{}, false
}

// decl returns the record of type ref, creating it.
func (m *module) decl(ref typeRef) *typeDecl {
	types := m.types[ref.pkg]
	if types == nil {
		types = map[string]*typeDecl{}
		m.types[ref.pkg] = types
	}
	td := types[ref.name]
	if td == nil {
		td = &typeDecl{members: map[string]bool{}}
		types[ref.name] = td
	}
	return td
}

// addFields records a struct's fields or an interface's methods on td;
// an embedded type is both a member and a source of promoted ones.
func addFields(td *typeDecl, list *ast.FieldList, pkg string) {
	for _, f := range list.List {
		for _, n := range f.Names {
			td.members[n.Name] = true
		}
		if len(f.Names) == 0 {
			if ref, ok := typeOf(f.Type, pkg); ok {
				td.members[ref.name] = true
				td.embeds = append(td.embeds, ref)
			}
		}
	}
}

// hasMember reports whether type ref has member name, declared or
// promoted through what it embeds.
func (m *module) hasMember(ref typeRef, name string, seen map[typeRef]bool) bool {
	td := m.types[ref.pkg][ref.name]
	if td == nil || seen[ref] {
		return false
	}
	seen[ref] = true
	if td.members[name] {
		return true
	}
	for _, e := range td.embeds {
		if m.hasMember(e, name, seen) {
			return true
		}
	}
	return false
}

// goPackages reads every package in the module: the names its files
// declare at top level, methods and test functions included, and the
// members of each type.
func goPackages(t *testing.T, root string) *module {
	t.Helper()
	mod := &module{names: map[string]map[string]bool{}, types: map[string]map[string]*typeDecl{}}
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
		names := mod.names[pkg]
		if names == nil {
			names = map[string]bool{}
			mod.names[pkg] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl: // methods too: `pkg.Method` is shorthand docs use
				names[decl.Name.Name] = true
				if decl.Recv != nil && len(decl.Recv.List) == 1 {
					if ref, ok := typeOf(decl.Recv.List[0].Type, pkg); ok {
						mod.decl(ref).members[decl.Name.Name] = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						td := mod.decl(typeRef{pkg, spec.Name.Name})
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							addFields(td, typ.Fields, pkg)
						case *ast.InterfaceType:
							addFields(td, typ.Methods, pkg)
						default:
							if ref, ok := typeOf(typ, pkg); ok && spec.Assign.IsValid() {
								td.embeds = append(td.embeds, ref)
							}
						}
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
	return mod
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

// docCommands are the commands whose flags a code span is held to.
var docCommands = []string{"dprsim", "dprnode", "genweb", "benchgate", "p2plint"}

// flagNameArg maps each flag-registering method of package flag (and
// of a *flag.FlagSet) to the position of its name argument.
var flagNameArg = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0, "Float64": 0, "Duration": 0,
	"Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1, "StringVar": 1,
	"Float64Var": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

// flagCalls walks the non-test Go files of dir. It returns, per
// top-level function, the flag names its flag calls register and the
// cliflags functions it calls.
func flagCalls(t *testing.T, dir string) (names, helpers map[string]map[string]bool) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names, helpers = map[string]map[string]bool{}, map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range paths {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			names[fn.Name.Name], helpers[fn.Name.Name] = map[string]bool{}, map[string]bool{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "cliflags" {
					helpers[fn.Name.Name][sel.Sel.Name] = true
				}
				if i, ok := flagNameArg[sel.Sel.Name]; ok && i < len(call.Args) {
					if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if name, err := strconv.Unquote(lit.Value); err == nil {
							names[fn.Name.Name][name] = true
						}
					}
				}
				return true
			})
		}
	}
	return names, helpers
}

// commandFlags returns the flags each of docCommands registers: those
// its own flag calls name, and those of the cliflags functions it
// calls. -h and -help are every command's.
func commandFlags(t *testing.T, root string) map[string]map[string]bool {
	t.Helper()
	shared, _ := flagCalls(t, filepath.Join(root, "internal", "cliflags"))
	flags := map[string]map[string]bool{}
	for _, cmd := range docCommands {
		names, helpers := flagCalls(t, filepath.Join(root, "cmd", cmd))
		set := map[string]bool{"h": true, "help": true}
		for fn := range names {
			for name := range names[fn] {
				set[name] = true
			}
			for h := range helpers[fn] {
				for name := range shared[h] {
					set[name] = true
				}
			}
		}
		if len(set) == 2 {
			t.Fatalf("cmd/%s: found no flag calls", cmd)
		}
		flags[cmd] = set
	}
	return flags
}

// spanFlags returns each (command, flag) pair in a code span that runs
// one of the commands in flags, bare (`dprsim -exp fig6`) or as `go
// run ./cmd/dprsim -exp fig6`. A shell separator ends a command.
func spanFlags(span string, flags map[string]map[string]bool) (uses [][2]string) {
	span = strings.Trim(span, "`")
	for _, seg := range shellSep.Split(span, -1) {
		cmd := ""
		for _, f := range strings.Fields(seg) {
			if cmd == "" {
				if name := path.Base(f); flags[name] != nil && (f == name || strings.Contains(f, "cmd/"+name)) {
					cmd = name
				}
				continue
			}
			if m := flagToken.FindStringSubmatch(f); m != nil {
				uses = append(uses, [2]string{cmd, m[1]})
			}
		}
	}
	return uses
}

// TestDocsNameRealCode keeps the documents naming code that exists:
// every backticked `pkg.Ident` whose pkg is one of the module's
// packages is declared there, and in `pkg.Type.Member` the type has
// that field or method, declared or promoted from a type it embeds;
// every Test/Benchmark/Fuzz name is a test
// function — in the named package when qualified; every `make X` is a
// Makefile rule; every backticked internal/, cmd/, examples/ or
// bench/ path exists in the tree; and a span that runs one of
// docCommands gives it only flags it registers. A passage that
// recounts removed code goes between historyOpen and historyClose
// lines. No line, history or not, cites a ROADMAP item by number: an
// item is cited by its title.
func TestDocsNameRealCode(t *testing.T) {
	root := repoRoot()
	mod := goPackages(t, root)
	pkgs := mod.names
	targets := makeTargets(t, root)
	flags := commandFlags(t, root)
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
			if m := roadmapItem.FindString(line); m != "" {
				t.Errorf("%s: %q: cite a ROADMAP item by its title, not its number", where, m)
			}
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
				for _, m := range member.FindAllStringSubmatch(span, -1) {
					ref := typeRef{m[1], m[2]}
					if mod.types[ref.pkg][ref.name] != nil && !mod.hasMember(ref, m[3], map[typeRef]bool{}) {
						t.Errorf("%s: %s.%s.%s: type %s.%s has no field or method %s", where, m[1], m[2], m[3], m[1], m[2], m[3])
					}
				}
				for _, m := range repoPath.FindAllStringSubmatch(span, -1) {
					if _, err := os.Stat(filepath.Join(root, strings.TrimRight(m[1], "."))); err != nil {
						t.Errorf("%s: `%s`: no such path in the repo", where, m[1])
					}
				}
				for _, use := range spanFlags(span, flags) {
					if !flags[use[0]][use[1]] {
						t.Errorf("%s: %s: %s has no flag -%s", where, span, use[0], use[1])
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
