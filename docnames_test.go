package tstorm_test

import (
	"encoding/json"
	"go/token"
	"go/types"
	"os"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose code spans may name declarations.
var docFiles = []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}

var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	// declRef is pkg.Name or pkg.Name.Member, optionally called. Names
	// with an underscore are left out: those spans are benchmark metric
	// keys such as live.apply_ms (the others are read from BENCHMARK.json).
	declRef = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z][A-Za-z0-9]*)(?:\.([A-Za-z][A-Za-z0-9]*))?(?:\(.*\))?$`)
	// memberRef is Type.Member, optionally called: a field or method named
	// through its type, without the package.
	memberRef = regexp.MustCompile(`^([A-Z][A-Za-z0-9]*)\.([A-Za-z][A-Za-z0-9]*)(?:\(.*\))?$`)
	// fileName is a span like tstorm.go: a file, not a declaration.
	fileName = regexp.MustCompile(`\.(go|md|json|csv|sh|txt|mod|html|svg|png)$`)
)

// TestDocsNameExistingDeclarations fails on an inline code span in the
// docs shaped pkg.Name or pkg.Name.Member, where pkg is a package of this
// module, that names no declaration, field or method the tree has, and on
// one shaped Type.Member, where Type is an exported type of a package of
// this module, when no type of that name has the member. Fenced blocks
// are skipped; bare names are out of its reach.
func TestDocsNameExistingDeclarations(t *testing.T) {
	u := loadUniverse(t)
	metrics := benchmarkMetrics(t)
	byName := map[string][]*types.Package{}
	typePkgs := map[string][]*types.Package{} // exported type name → packages declaring it
	for _, p := range u.order {
		if p.types.Name() != "main" && !strings.HasPrefix(p.path, "tstorm/bench") {
			byName[p.types.Name()] = append(byName[p.types.Name()], p.types)
			for _, name := range p.types.Scope().Names() {
				if _, ok := p.types.Scope().Lookup(name).(*types.TypeName); ok && token.IsExported(name) {
					typePkgs[name] = append(typePkgs[name], p.types)
				}
			}
		}
	}
	for _, file := range docFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				span := strings.TrimSpace(m[1])
				if fileName.MatchString(span) || metrics[span] {
					continue
				}
				if ref := memberRef.FindStringSubmatch(span); ref != nil {
					if pkgs := typePkgs[ref[1]]; len(pkgs) > 0 && !declExists(pkgs, ref[1], ref[2]) {
						t.Errorf("%s:%d: `%s`: no type %s in this module has a field or method %s", file, i+1, span, ref[1], ref[2])
					}
					continue
				}
				ref := declRef.FindStringSubmatch(span)
				if ref == nil {
					continue
				}
				pkgs := byName[ref[1]]
				if len(pkgs) == 0 {
					continue
				}
				if !declExists(pkgs, ref[2], ref[3]) {
					t.Errorf("%s:%d: `%s` names no declaration in package %s", file, i+1, span, ref[1])
				}
			}
		}
	}
}

// declExists reports whether one of pkgs declares name at package level
// and, when member is set, whether that declaration's type has a field or
// method of that name.
func declExists(pkgs []*types.Package, name, member string) bool {
	for _, pkg := range pkgs {
		obj := pkg.Scope().Lookup(name)
		if obj == nil {
			continue
		}
		if member == "" {
			return true
		}
		typ := obj.Type()
		if _, ok := obj.(*types.TypeName); ok && !types.IsInterface(typ) {
			typ = types.NewPointer(typ)
		}
		if f, _, _ := types.LookupFieldOrMethod(typ, true, pkg, member); f != nil {
			return true
		}
	}
	return false
}

// benchmarkMetrics is the set of metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var manifest struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range append(manifest.EndToEnd, manifest.PerLayer...) {
		out[m.Name] = true
	}
	return out
}
