package tstorm_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// deadAllowlist names internal declarations that no program uses but that
// stay, each with the reason. Keys are "pkg.Name", "pkg.Type.Method", or a
// bare package name for a test-support package. It holds at most
// maxAllowlist entries: a longer list is a reason to delete, not to list.
var deadAllowlist = map[string]string{
	"schedtest":                    "test-support package: the scheduler and core differential, fuzz and contender tests share its inputs",
	"predictor.SlidingMeanFactory": "alternative §IV-B estimator; ROADMAP item 7 decides the estimators",
	"predictor.HoltFactory":        "alternative §IV-B estimator; ROADMAP item 7 decides the estimators",
	"predictor.WindowMaxFactory":   "alternative §IV-B estimator; ROADMAP item 7 decides the estimators",
	"topology.BoltDecl.All":        "one of Storm's six groupings, which router and engine implement; TestGoldenDES declares it",
	"topology.BoltDecl.Direct":     "one of Storm's six groupings, which router and engine implement; TestGoldenDES declares it",
	"dist.Engine.FailNode":         "whole-node fault on the process fleet; ROADMAP item 13's fault schedules decide it",
	"dist.Engine.RecoverNode":      "whole-node fault on the process fleet; ROADMAP item 13's fault schedules decide it",
	"tuple.HashKey":                "string-path reference that the tuple, topology, engine and live tests hold the fast key hash to",
	"trace.Recorder.Filter":        "the one by-kind trace query the engine, health, live and trace tests share",
	"transport.NIC.MessagesSent":   "the engine test that holds tuple batching to fewer wire messages counts them here",
}

const maxAllowlist = 12

// allowed returns the allowlist key covering name, if any.
func allowed(name string) (string, bool) {
	if _, ok := deadAllowlist[name]; ok {
		return name, true
	}
	pkg, _, _ := strings.Cut(name, ".")
	_, ok := deadAllowlist[pkg]
	return pkg, ok
}

// TestNoDeadInternalCode fails on every package-level declaration or
// method under internal/ that no non-test code of either module (tstorm,
// tstorm/bench) references. A method also counts as used when its type
// satisfies an interface, from either module or the standard library,
// that names it. A blank assertion (var _ I = T{}) does not count as a use.
// A declaration only tests use is dead code with tests: delete both, or
// allowlist it above with a reason.
func TestNoDeadInternalCode(t *testing.T) {
	if len(deadAllowlist) > maxAllowlist {
		t.Errorf("allowlist holds %d entries, at most %d", len(deadAllowlist), maxAllowlist)
	}
	u := loadUniverse(t)
	dead := u.deadDecls()
	seen := map[string]bool{}
	for _, d := range dead {
		if key, ok := allowed(d.name); ok {
			seen[key] = true
			continue
		}
		t.Errorf("%s:%d %s is used by no non-test code", d.file, d.line, d.name)
	}
	for name := range deadAllowlist {
		if !seen[name] {
			t.Errorf("allowlist entry %s is stale: it is used, or it no longer exists", name)
		}
	}
}

// A universe is every non-test package of both modules, type-checked from
// source against one copy of the standard library's export data, so a
// type from internal/ is the same *types.Named wherever it appears.
type universe struct {
	root  string
	fset  *token.FileSet
	info  *types.Info
	pkgs  map[string]*srcPkg // by import path: module packages only
	std   types.Importer
	order []*srcPkg
}

type srcPkg struct {
	path  string
	files []*ast.File
	types *types.Package
}

var (
	universeOnce sync.Once
	theUniverse  *universe
	universeErr  error
)

func loadUniverse(t *testing.T) *universe {
	t.Helper()
	universeOnce.Do(func() { theUniverse, universeErr = buildUniverse() })
	if universeErr != nil {
		t.Fatal(universeErr)
	}
	return theUniverse
}

func buildUniverse() (*universe, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	u := &universe{
		root: root,
		fset: token.NewFileSet(),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		pkgs: map[string]*srcPkg{},
	}
	exports := map[string]string{}
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		if err := u.list(dir, exports); err != nil {
			return nil, err
		}
	}
	u.std = importer.ForCompiler(u.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	paths := make([]string, 0, len(u.pkgs))
	for p := range u.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := u.check(p); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// list records the module packages of the module in dir, with their
// non-test files, and the export data of every standard package they need.
func (u *universe) list(dir string, exports map[string]string) error {
	cmd := exec.Command("go", "list", "-deps", "-export",
		"-f", "{{.ImportPath}}\t{{.Standard}}\t{{.Export}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 5 {
			return fmt.Errorf("go list: bad line %q", sc.Text())
		}
		if f[1] == "true" {
			exports[f[0]] = f[2]
			continue
		}
		if _, ok := u.pkgs[f[0]]; ok {
			continue
		}
		p := &srcPkg{path: f[0]}
		for _, name := range strings.Fields(f[4]) {
			file, err := parser.ParseFile(u.fset, filepath.Join(f[3], name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, file)
		}
		u.pkgs[p.path] = p
	}
	return sc.Err()
}

func (u *universe) Import(path string) (*types.Package, error) {
	if _, ok := u.pkgs[path]; ok {
		return u.check(path)
	}
	return u.std.Import(path)
}

func (u *universe) check(path string) (*types.Package, error) {
	p := u.pkgs[path]
	if p.types != nil {
		return p.types, nil
	}
	conf := types.Config{Importer: u}
	tp, err := conf.Check(path, u.fset, p.files, u.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	p.types = tp
	u.order = append(u.order, p)
	return tp, nil
}

// rel is pos as a repo-relative file and line.
func (u *universe) rel(pos token.Pos) (string, int) {
	p := u.fset.Position(pos)
	if r, err := filepath.Rel(u.root, p.Filename); err == nil {
		return filepath.ToSlash(r), p.Line
	}
	return p.Filename, p.Line
}

type deadDecl struct {
	file string
	line int
	name string
}

// span is a source range whose references to an object do not count as
// uses of it: the object's own declaration, and for a type its methods.
type span struct{ from, to token.Pos }

func (u *universe) deadDecls() []deadDecl {
	type decl struct {
		obj  types.Object
		name string
		own  []span
	}
	var decls []*decl
	byObj := map[types.Object]*decl{}
	add := func(obj types.Object, name string, node ast.Node) {
		if obj == nil || obj.Name() == "_" {
			return
		}
		d := &decl{obj: obj, name: name, own: []span{{node.Pos(), node.End()}}}
		decls = append(decls, d)
		byObj[obj] = d
	}
	// A blank assertion (var _ I = T{}) checks a type, it does not use it.
	var blank []span
	for _, p := range u.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if g, ok := d.(*ast.GenDecl); ok && g.Tok == token.VAR {
					for _, s := range g.Specs {
						if s := s.(*ast.ValueSpec); s.Type != nil && allBlank(s.Names) {
							blank = append(blank, span{s.Pos(), s.End()})
						}
					}
				}
			}
		}
	}
	for _, p := range u.order {
		if !strings.Contains(p.path+"/", "/internal/") {
			continue
		}
		pkg := p.types.Name()
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := u.info.Defs[d.Name]
					if d.Recv == nil {
						if d.Name.Name == "init" {
							continue
						}
						add(obj, pkg+"."+d.Name.Name, d)
						continue
					}
					add(obj, pkg+"."+recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(u.info.Defs[s.Name], pkg+"."+s.Name.Name, s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(u.info.Defs[n], pkg+"."+n.Name, s)
							}
						}
					}
				}
			}
		}
	}
	// A type's own methods do not use it.
	for _, d := range decls {
		fn, ok := d.obj.(*types.Func)
		if !ok {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		if named := namedOf(recv.Type()); named != nil {
			if td := byObj[named.Obj()]; td != nil {
				td.own = append(td.own, d.own[0])
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range u.info.Uses {
		obj = origin(obj)
		d := byObj[obj]
		if d == nil || used[obj] {
			continue
		}
		if !inSpans(id.Pos(), d.own) && !inSpans(id.Pos(), blank) {
			used[obj] = true
		}
	}
	u.markInterfaceMethods(used)

	var dead []deadDecl
	for _, d := range decls {
		if used[d.obj] {
			continue
		}
		file, line := u.rel(d.obj.Pos())
		dead = append(dead, deadDecl{file, line, d.name})
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].file != dead[j].file {
			return dead[i].file < dead[j].file
		}
		return dead[i].line < dead[j].line
	})
	return dead
}

// markInterfaceMethods marks as used every method through which a module
// type satisfies an interface: a named one of either module or of an
// imported standard package, or an interface literal in module code.
func (u *universe) markInterfaceMethods(used map[types.Object]bool) {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, n := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range u.order {
		walk(p.types)
	}
	for _, tv := range u.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	// Every non-generic, non-interface type the modules declare, at
	// package level or inside a function.
	for _, obj := range u.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		nt, ok := tn.Type().(*types.Named)
		if !ok || nt.TypeParams() != nil || types.IsInterface(nt) {
			continue
		}
		ptr := types.NewPointer(nt)
		ms := types.NewMethodSet(ptr)
		if ms.Len() == 0 {
			continue
		}
		for _, it := range ifaces {
			if ms.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
					used[origin(sel.Obj())] = true
				}
			}
		}
	}
}

func inSpans(pos token.Pos, spans []span) bool {
	for _, s := range spans {
		if pos >= s.from && pos < s.to {
			return true
		}
	}
	return false
}

func allBlank(names []*ast.Ident) bool {
	for _, n := range names {
		if n.Name != "_" {
			return false
		}
	}
	return true
}

// origin maps a method of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
