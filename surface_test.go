package mla_test

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/surface.txt from this scan")

// TestSurface is the dead-surface audit. It type-checks every non-test Go
// file of the module and pins three lists in testdata/surface.txt:
//
//   - unused: exported identifiers of internal/ packages (package-level
//     names and the methods of their types) that no non-test file names
//     apart from their own declaration. A method also counts as named when
//     it satisfies an interface the program calls or asserts, or an
//     interface of a standard-library package the module imports.
//   - unset: exported fields of internal/ *Config, *Params, *Options and
//     *Plan structs that no non-test file outside the declaring package
//     writes (a composite-literal key, an assignment, or &field).
//   - obligation: comment lines that put a correctness obligation on the
//     caller ("caller must", "Correctness contract").
//
// An entry that only benchmark/ reaches is marked "bench"; every other
// unused or unset entry carries a one-line reason after " -- ". The pin is
// exact: a new entry fails, and so does a pinned entry the scan no longer
// finds. go test . -run TestSurface -update rewrites the pin, keeping the
// reasons of the entries that stay.
//
// It also fails when a directory under internal/ (nested packages count
// with their parent) or a program under examples/ has no row in
// DESIGN.md's system inventory.
func TestSurface(t *testing.T) {
	t.Parallel()
	s := newSurface(".")
	if err := s.loadModule(); err != nil {
		t.Fatal(err)
	}
	got := s.entries()

	const pin = "testdata/surface.txt"
	want, reasons, err := readPin(pin)
	if err != nil && !(*update && os.IsNotExist(err)) {
		t.Fatal(err)
	}
	if *update {
		if err := writePin(pin, got, reasons); err != nil {
			t.Fatal(err)
		}
		want = got
	}
	wantSet := map[string]bool{}
	for _, e := range want {
		wantSet[e] = true
	}
	gotSet := map[string]bool{}
	for _, e := range got {
		gotSet[e] = true
		if !wantSet[e] {
			t.Errorf("new dead surface: %s (delete it, move it into a _test.go file, or pin it with a reason)", e)
		}
	}
	for _, e := range want {
		if !gotSet[e] {
			t.Errorf("%s is pinned but the scan no longer finds it: shrink the pin (go test . -run TestSurface -update)", e)
		}
	}
	for _, e := range got {
		if wantSet[e] && !strings.HasPrefix(e, "obligation ") && !strings.HasSuffix(e, " bench") && reasons[e] == "" {
			t.Errorf("%s is pinned without a reason", e)
		}
	}

	for _, missing := range inventoryGaps(t, "DESIGN.md") {
		t.Errorf("DESIGN.md's system inventory has no row naming %s", missing)
	}
}

const module = "mla"

type scannedPkg struct {
	rel   string // directory relative to the module root, "." for the root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

type surface struct {
	root    string
	fset    *token.FileSet
	dirs    map[string]*build.Package // by directory relative to root
	std     types.Importer
	stdPkgs map[string]*types.Package
	pkgs    map[string]*scannedPkg // by import path
	order   []*scannedPkg
}

func newSurface(root string) *surface {
	return &surface{
		root:    root,
		fset:    token.NewFileSet(),
		dirs:    map[string]*build.Package{},
		stdPkgs: map[string]*types.Package{},
		pkgs:    map[string]*scannedPkg{},
	}
}

// Import type-checks module packages from source and takes everything else
// from the compiler's export data, through one importer so that types stay
// identical across packages.
func (s *surface) Import(path string) (*types.Package, error) {
	if path == module || strings.HasPrefix(path, module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
		if rel == "" {
			rel = "."
		}
		p, err := s.load(rel)
		if err != nil {
			return nil, err
		}
		return p.pkg, nil
	}
	p, err := s.std.Import(path)
	if err == nil {
		s.stdPkgs[path] = p
	}
	return p, err
}

// loadModule finds every directory with non-test Go files, locates the
// export data of the packages they import from outside the module with one
// go list call (the default importer runs one per package), and
// type-checks the module.
func (s *surface) loadModule() error {
	need := map[string]bool{}
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != s.root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(s.root, path)
		s.dirs[filepath.ToSlash(rel)] = bp
		for _, imp := range bp.Imports {
			if imp != module && !strings.HasPrefix(imp, module+"/") {
				need[imp] = true
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	args := []string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for imp := range need {
		args = append(args, imp)
	}
	out, err := exec.Command("go", args...).Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return fmt.Errorf("go list -export: %w: %s", err, exit.Stderr)
	} else if err != nil {
		return fmt.Errorf("go list -export: %w", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if imp, file, ok := strings.Cut(line, "\t"); ok {
			exports[imp] = file
		}
	}
	s.std = importer.ForCompiler(s.fset, "gc", func(imp string) (io.ReadCloser, error) {
		if file := exports[imp]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("no export data for %s", imp)
	})

	rels := make([]string, 0, len(s.dirs))
	for rel := range s.dirs {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		if _, err := s.load(rel); err != nil {
			return err
		}
	}
	return nil
}

func (s *surface) load(rel string) (*scannedPkg, error) {
	path := module
	if rel != "." {
		path += "/" + rel
	}
	if p, ok := s.pkgs[path]; ok {
		if p.pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	bp := s.dirs[rel]
	if bp == nil {
		return nil, fmt.Errorf("%s: no Go files in %s", path, rel)
	}
	p := &scannedPkg{rel: rel}
	s.pkgs[path] = p
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(bp.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: s}).Check(path, s.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkg = pkg
	s.order = append(s.order, p)
	return p, nil
}

// underlying is the underlying type of e, nil when the checker recorded
// none.
func (p *scannedPkg) underlying(e ast.Expr) types.Type {
	if tv, ok := p.info.Types[e]; ok && tv.Type != nil {
		return tv.Type.Underlying()
	}
	return nil
}

// reach is who names an object: the program (anything outside benchmark/)
// or only benchmark/.
type reach uint8

const (
	unreached reach = iota
	benchOnly
	program
)

func (p *scannedPkg) reach() reach {
	if p.rel == "benchmark" || strings.HasPrefix(p.rel, "benchmark/") {
		return benchOnly
	}
	return program
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func (s *surface) entries() []string {
	uses := map[types.Object]reach{}
	mark := func(obj types.Object, r reach) {
		obj = origin(obj)
		if uses[obj] < r {
			uses[obj] = r
		}
	}
	// Interfaces whose methods the program reaches: by a call or method
	// value (the named methods), or by a type assertion or type switch
	// (all of its methods).
	type ifaceUse struct {
		iface *types.Interface
		names map[string]bool // nil: every method
		r     reach
	}
	ifaces := map[*types.Interface]*ifaceUse{}
	useIface := func(it *types.Interface, name string, r reach) {
		u := ifaces[it]
		if u == nil {
			u = &ifaceUse{iface: it, names: map[string]bool{}}
			ifaces[it] = u
		}
		if name == "" {
			u.names = nil
		} else if u.names != nil {
			u.names[name] = true
		}
		if u.r < r {
			u.r = r
		}
	}
	asserted := func(p *scannedPkg, e ast.Expr) {
		if it, ok := p.underlying(e).(*types.Interface); ok {
			useIface(it, "", p.reach())
		}
	}
	writes := map[types.Object]reach{}
	write := func(p *scannedPkg, obj types.Object) {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() || v.Pkg() == p.pkg {
			return
		}
		v = v.Origin()
		if writes[v] < p.reach() {
			writes[v] = p.reach()
		}
	}
	selected := func(p *scannedPkg, e ast.Expr) types.Object {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			return p.info.Uses[sel.Sel]
		}
		return nil
	}

	for _, p := range s.order {
		r := p.reach()
		for _, obj := range p.info.Uses {
			mark(obj, r)
			if fn, ok := obj.(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						useIface(it, fn.Name(), r)
					}
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeAssertExpr:
					asserted(p, n.Type)
				case *ast.TypeSwitchStmt:
					for _, c := range n.Body.List {
						for _, e := range c.(*ast.CaseClause).List {
							asserted(p, e)
						}
					}
				case *ast.CompositeLit:
					st, ok := p.underlying(n).(*types.Struct)
					if !ok {
						break
					}
					for i, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								write(p, p.info.Uses[id])
							}
						} else if i < st.NumFields() {
							write(p, st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(p, selected(p, lhs))
					}
				case *ast.IncDecStmt:
					write(p, selected(p, n.X))
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(p, selected(p, n.X))
					}
				}
				return true
			})
		}
	}
	// A standard-library package calls the methods of its own interfaces
	// (fmt's Stringer, sort's Interface, error).
	for _, pkg := range s.stdPkgs {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if _, ok := obj.(*types.TypeName); !ok || !obj.Exported() {
				continue
			}
			if it, ok := obj.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				useIface(it, "", program)
			}
		}
	}
	useIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface), "", program)

	// Every concrete named type of the module that implements a reached
	// interface reaches the implementing methods, promoted ones included.
	var named []*types.Named
	for _, p := range s.order {
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				if _, isIface := n.Underlying().(*types.Interface); !isIface {
					named = append(named, n)
				}
			}
		}
	}
	for _, u := range ifaces {
		if u.iface.NumMethods() == 0 {
			continue
		}
		for _, n := range named {
			var t types.Type = n
			if !types.Implements(t, u.iface) {
				t = types.NewPointer(n)
				if !types.Implements(t, u.iface) {
					continue
				}
			}
			for i := 0; i < u.iface.NumMethods(); i++ {
				m := u.iface.Method(i)
				if u.names != nil && !u.names[m.Name()] {
					continue
				}
				if obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name()); obj != nil {
					mark(obj, u.r)
				}
			}
		}
	}

	var out []string
	add := func(kind string, p *scannedPkg, name string, r reach) {
		e := kind + " " + p.rel + " " + name
		if r == benchOnly {
			e += " bench"
		}
		out = append(out, e)
	}
	configName := regexp.MustCompile(`(Config|Params|Options|Plan)$`)
	for _, p := range s.order {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if r := uses[obj]; r != program {
				add("unused", p, name, r)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := n.Underlying().(*types.Interface); !isIface {
				for i := 0; i < n.NumMethods(); i++ {
					m := n.Method(i)
					if r := uses[m]; m.Exported() && r != program {
						add("unused", p, name+"."+m.Name(), r)
					}
				}
			}
			if st, ok := n.Underlying().(*types.Struct); ok && configName.MatchString(name) {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if r := writes[f]; f.Exported() && r != program {
						add("unset", p, name+"."+f.Name(), r)
					}
				}
			}
		}
	}
	obligation := regexp.MustCompile(`(?i)caller must|correctness contract`)
	for _, p := range s.order {
		for _, f := range p.files {
			file, _ := filepath.Rel(s.root, s.fset.File(f.Pos()).Name())
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, line := range strings.Split(c.Text, "\n") {
						if obligation.MatchString(line) {
							line = strings.TrimSpace(strings.TrimLeft(strings.TrimSpace(line), "/*"))
							out = append(out, "obligation "+filepath.ToSlash(file)+": "+line)
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// readPin reads the pinned entries and their reasons; a reason follows the
// entry after " -- ".
func readPin(path string) (entries []string, reasons map[string]string, err error) {
	reasons = map[string]string{}
	f, err := os.Open(path)
	if err != nil {
		return nil, reasons, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, reason, _ := strings.Cut(line, " -- ")
		entries = append(entries, e)
		reasons[e] = reason
	}
	return entries, reasons, sc.Err()
}

const pinHeader = `# The dead-surface audit's pin (surface_test.go). One entry a line:
#   unused <dir> <name>       exported internal/ identifier no non-test file names
#   unset <dir> <Type.Field>  config field no non-test file outside its package writes
#   obligation <file>: <line> comment that puts a correctness obligation on the caller
# "bench" marks an entry only benchmark/ reaches; every other unused or unset
# entry carries its reason after " -- ". Regenerate with
# go test . -run TestSurface -update (reasons are kept).
`

func writePin(path string, entries []string, reasons map[string]string) error {
	var b strings.Builder
	b.WriteString(pinHeader)
	for _, e := range entries {
		b.WriteString(e)
		if r := reasons[e]; r != "" {
			b.WriteString(" -- " + r)
		}
		b.WriteByte('\n')
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// inventoryGaps lists each directory under internal/ and each program under
// examples/ that DESIGN.md's system inventory does not name.
func inventoryGaps(t *testing.T, design string) []string {
	data, err := os.ReadFile(design)
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## System inventory\n")
	if !ok {
		t.Fatalf("%s has no System inventory section", design)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var examplesRow string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| `examples/`") {
			examplesRow = line
		}
	}
	var gaps []string
	for _, dir := range []string{"internal", "examples"} {
		des, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range des {
			if !d.IsDir() {
				continue
			}
			if dir == "internal" && !strings.Contains(section, "`internal/"+d.Name()+"`") {
				gaps = append(gaps, "internal/"+d.Name())
			}
			if dir == "examples" && !strings.Contains(examplesRow, d.Name()) {
				gaps = append(gaps, "examples/"+d.Name())
			}
		}
	}
	return gaps
}
