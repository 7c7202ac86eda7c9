package tstorm_test

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fieldAllowlist names struct fields under internal/ that fail a rule of
// TestNoDeadInternalFields but stay, each with the reason, as
// "pkg.Type.Field". It holds at most maxFieldAllowlist entries.
var fieldAllowlist = map[string]string{
	"live.liveExec.scratch":                 "XOR sink that keeps the InterNodeCopies copy loop from being compiled away; ROADMAP item 12(b) decides the emulation",
	"dist.Config.TraceSampling":             "tuple tracing on the process fleet, which only TestDistributedTraceUnderMigration turns on; ROADMAP item 3 decides whether tracing stays",
	"live.Config.MaxPending":                "only bench/live_paced.go writes it, and only with 0; ROADMAP item 3 lists it for the next benchmark change",
	"core.TrafficAware.DisableTrafficOrder": "only the root bench_test.go ablation sets it; ROADMAP item 3 lists it for the next benchmark change",
	"experiment.Config.SmoothOverride":      "only the root bench_test.go ablation sets it; ROADMAP item 3 lists it for the next benchmark change",
	"experiment.Config.Batching":            "only the root bench_test.go ablation sets it; ROADMAP item 3 lists it for the next benchmark change",
}

const maxFieldAllowlist = 6

// TestNoDeadInternalFields fails on two kinds of struct field under
// internal/, judged by the non-test code of both modules:
//
//   - rule A (unread): a field that no program reads;
//   - rule B (one-value knob): a field of non-struct type that no program
//     writes, or that programs only ever set to its zero value.
//
// A write is the left side of = or :=, a key or position in a composite
// literal, ++, -- or op= on the field, a range key or value, or a
// sync/atomic Add or Store whose result is discarded. Every other
// reference reads it, taking its address included; for rule B a taken
// address, a pointer-method call or an indexed array element may also
// write it. Embedded fields are exempt (promotion reads them), and so is
// every field of a struct that reflection, comparison or user code reads:
// one with a json tag, one a value passed to encoding/json holds, one a
// map key holds, and one a callback interface of the root package hands
// to user code (exemptStructs).
func TestNoDeadInternalFields(t *testing.T) {
	if len(fieldAllowlist) > maxFieldAllowlist {
		t.Errorf("field allowlist holds %d entries, at most %d", len(fieldAllowlist), maxFieldAllowlist)
	}
	u := loadUniverse(t)
	seen := map[string]bool{}
	for _, f := range u.deadFields() {
		if _, ok := fieldAllowlist[f.name]; ok {
			seen[f.name] = true
			continue
		}
		if key, ok := allowed(f.name); ok && key != f.name {
			continue // a package the declaration allowlist exempts
		}
		t.Errorf("%s:%d %s %s", f.file, f.line, f.name, f.rule)
	}
	for name := range fieldAllowlist {
		if !seen[name] {
			t.Errorf("field allowlist entry %s is stale: it passes both rules, or it no longer exists", name)
		}
	}
}

type deadField struct {
	deadDecl
	rule string
}

const (
	ruleUnread = "is read by no non-test code (rule A: unread)"
	ruleKnob   = "is set to no non-zero value by non-test code (rule B: one-value knob)"
)

func (u *universe) deadFields() []deadField {
	names := u.fieldNames()
	exempt := u.exemptStructs()
	// set holds the fields some program may store a non-zero value in.
	read, set := map[*types.Var]bool{}, map[*types.Var]bool{}
	writes := map[*ast.Ident]bool{}
	for _, p := range u.order {
		for _, f := range p.files {
			u.walkWrites(f, func(id *ast.Ident, v *types.Var, nonZero bool) {
				writes[id] = true
				set[v] = set[v] || nonZero
			}, func(v *types.Var) { set[v] = true })
		}
	}
	for id, obj := range u.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
			read[v.Origin()] = true
		}
	}
	var dead []deadField
	for v, name := range names {
		if exempt[name.owner] {
			continue
		}
		rule := ""
		switch {
		case !read[v]:
			rule = ruleUnread
		case !set[v] && !isStruct(v.Type()):
			rule = ruleKnob
		default:
			continue
		}
		file, line := u.rel(v.Pos())
		dead = append(dead, deadField{deadDecl{file, line, name.name}, rule})
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].file != dead[j].file {
			return dead[i].file < dead[j].file
		}
		return dead[i].line < dead[j].line
	})
	return dead
}

type fieldName struct {
	name  string
	owner *types.Struct
}

// fieldNames names every non-embedded field declared under internal/ as
// pkg.Type.Field, a field of a nested struct literal as
// pkg.Type.Field.Sub, and a field of a struct no type names as
// pkg.struct.Field.
func (u *universe) fieldNames() map[*types.Var]fieldName {
	names := map[*types.Var]fieldName{}
	var add func(st *types.Struct, prefix string)
	add = func(st *types.Struct, prefix string) {
		for i := 0; i < st.NumFields(); i++ {
			v := st.Field(i)
			if _, done := names[v]; done || v.Embedded() || v.Name() == "_" {
				continue
			}
			names[v] = fieldName{prefix + "." + v.Name(), st}
			if inner, ok := v.Type().(*types.Struct); ok {
				add(inner, prefix+"."+v.Name())
			}
		}
	}
	internal := func(obj types.Object) bool {
		return obj.Pkg() != nil && strings.Contains(obj.Pkg().Path()+"/", "/internal/")
	}
	// Name a struct after the type whose declaration spells it out, not
	// after a type defined from that one (type emitTick executor).
	for _, p := range u.order {
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if s, ok := n.(*ast.TypeSpec); ok {
					if _, ok := s.Type.(*ast.StructType); ok {
						if tn := u.info.Defs[s.Name]; tn != nil && internal(tn) {
							add(tn.Type().Underlying().(*types.Struct), tn.Pkg().Name()+"."+tn.Name())
						}
					}
				}
				return true
			})
		}
	}
	for _, obj := range u.info.Defs {
		if v, ok := obj.(*types.Var); ok && v.IsField() && internal(v) {
			if _, done := names[v]; !done && !v.Embedded() && v.Name() != "_" {
				names[v] = fieldName{v.Pkg().Name() + ".struct." + v.Name(), nil}
			}
		}
	}
	return names
}

// exemptStructs are the structs whose fields something other than the
// code the rules see reads: reflection (a struct with a json tag, or one a
// value passed to encoding/json holds), comparison (a struct a map key
// holds) and user code (a struct a callback interface of the root package
// hands to user code, such as the Context of Spout.Open).
func (u *universe) exemptStructs() map[*types.Struct]bool {
	exempt := map[*types.Struct]bool{}
	// reach exempts the structs t holds; a value passed to encoding/json
	// also reaches through pointers, slices and maps.
	seen := map[types.Type]bool{}
	var reach func(t types.Type, encoded bool)
	reach = func(t types.Type, encoded bool) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.Underlying().(type) {
		case *types.Struct:
			exempt[t] = true
			for i := 0; i < t.NumFields(); i++ {
				reach(t.Field(i).Type(), encoded)
			}
		case *types.Array:
			reach(t.Elem(), encoded)
		case *types.Pointer:
			if encoded {
				reach(t.Elem(), encoded)
			}
		case *types.Slice:
			if encoded {
				reach(t.Elem(), encoded)
			}
		case *types.Map:
			if encoded {
				reach(t.Key(), encoded)
				reach(t.Elem(), encoded)
			}
		}
	}
	for _, tv := range u.info.Types {
		if m, ok := tv.Type.(*types.Map); ok {
			reach(m.Key(), false)
		}
	}
	clear(seen)
	for _, t := range u.jsonEncoded() {
		reach(t, true)
	}
	for _, obj := range u.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
					exempt[st] = true
				}
			}
		}
	}
	if root := u.pkgs["tstorm"]; root != nil {
		scope := root.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			it, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				params := it.Method(i).Type().(*types.Signature).Params()
				for j := 0; j < params.Len(); j++ {
					t := params.At(j).Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					if st, ok := t.Underlying().(*types.Struct); ok {
						exempt[st] = true
					}
				}
			}
		}
	}
	return exempt
}

// jsonEncoded returns the static types of the values non-test code passes
// to json.Marshal, json.MarshalIndent or Encoder.Encode, directly or
// through a function that hands one of its interface-typed parameters on
// to one of them (telemetry's writeJSON).
func (u *universe) jsonEncoded() []types.Type {
	type callSite struct {
		in   *types.Func // the function the call is in, nil outside one
		call *ast.CallExpr
	}
	var calls []callSite
	for _, p := range u.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var in *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok {
					in, _ = u.info.Defs[fd.Name].(*types.Func)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						calls = append(calls, callSite{in, call})
					}
					return true
				})
			}
		}
	}
	// sinks maps each function that encodes an argument to its index.
	sinks := map[*types.Func]int{}
	sink := func(call *ast.CallExpr) (int, bool) {
		fn := u.callee(call)
		if fn == nil {
			return 0, false
		}
		fn = fn.Origin()
		if fn.Pkg() != nil && fn.Pkg().Path() == "encoding/json" {
			switch fn.Name() {
			case "Marshal", "MarshalIndent", "Encode":
				return 0, len(call.Args) > 0
			}
		}
		i, ok := sinks[fn]
		return i, ok && i < len(call.Args)
	}
	for grew := true; grew; {
		grew = false
		for _, c := range calls {
			if c.in == nil {
				continue
			}
			if _, done := sinks[c.in]; done {
				continue
			}
			k, ok := sink(c.call)
			if !ok {
				continue
			}
			id, _ := ast.Unparen(c.call.Args[k]).(*ast.Ident)
			v, _ := u.info.Uses[id].(*types.Var)
			if v == nil || !types.IsInterface(v.Type()) {
				continue
			}
			params := c.in.Type().(*types.Signature).Params()
			for i := 0; i < params.Len(); i++ {
				if params.At(i) == v {
					sinks[c.in] = i
					grew = true
				}
			}
		}
	}
	var out []types.Type
	for _, c := range calls {
		if k, ok := sink(c.call); ok {
			if tv, ok := u.info.Types[c.call.Args[k]]; ok && tv.Type != nil {
				out = append(out, tv.Type)
			}
		}
	}
	return out
}

// walkWrites calls write for every reference in f that writes a field,
// with whether it may store a value other than the field's zero value, and
// mayWrite for a read that may also store through the field's address.
func (u *universe) walkWrites(f *ast.File, write func(*ast.Ident, *types.Var, bool), mayWrite func(*types.Var)) {
	field := func(id *ast.Ident) *types.Var {
		if v, ok := u.info.Uses[id].(*types.Var); ok && v.IsField() {
			return v.Origin()
		}
		return nil
	}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CompositeLit:
			u.literalWrites(n, write)
		case *ast.SelectorExpr:
			v := field(n.Sel)
			if v == nil {
				return true
			}
			switch nonZero, kind := u.selectorUse(n, v, stack[:len(stack)-1]); kind {
			case useWrite:
				write(n.Sel, v, nonZero)
			case useAddr:
				mayWrite(v)
			}
		}
		return true
	})
}

type useKind int

const (
	useRead useKind = iota
	useWrite
	useAddr // a read that may also write through the field's address
)

// selectorUse classifies sel, a selection of field v, by its parents.
func (u *universe) selectorUse(sel *ast.SelectorExpr, v *types.Var, parents []ast.Node) (nonZero bool, kind useKind) {
	var expr ast.Expr = sel
	i := len(parents) - 1
	for i >= 0 {
		p, ok := parents[i].(*ast.ParenExpr)
		if !ok {
			break
		}
		expr = p
		i--
	}
	if i < 0 {
		return false, useRead
	}
	parent := func(k int) ast.Node {
		if i-k < 0 {
			return nil
		}
		return parents[i-k]
	}
	switch p := parent(0).(type) {
	case *ast.AssignStmt:
		for j, lhs := range p.Lhs {
			if lhs != expr {
				continue
			}
			if p.Tok != token.ASSIGN && p.Tok != token.DEFINE {
				return true, useWrite
			}
			if len(p.Rhs) != len(p.Lhs) {
				return true, useWrite
			}
			return !u.isZero(p.Rhs[j]), useWrite
		}
	case *ast.IncDecStmt:
		return true, useWrite
	case *ast.RangeStmt:
		if p.Key == expr || p.Value == expr {
			return true, useWrite
		}
	case *ast.UnaryExpr:
		if p.Op != token.AND {
			break
		}
		if call, ok := parent(1).(*ast.CallExpr); ok && len(call.Args) > 0 && call.Args[0] == p {
			if fn := u.callee(call); fn != nil && atomicWrite(fn) && discarded(parent(2)) {
				return true, useWrite
			}
		}
		return false, useAddr
	case *ast.IndexExpr:
		if _, array := v.Type().Underlying().(*types.Array); array && p.X == expr {
			return false, useAddr // an element may be stored or addressed
		}
	case *ast.SelectorExpr:
		fn, ok := u.info.Uses[p.Sel].(*types.Func)
		if !ok {
			break
		}
		if call, ok := parent(1).(*ast.CallExpr); ok && call.Fun == p && atomicWrite(fn) && discarded(parent(2)) {
			return true, useWrite
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if _, ptr := recv.Type().(*types.Pointer); ptr {
				if _, already := v.Type().(*types.Pointer); !already {
					return false, useAddr
				}
			}
		}
	}
	return false, useRead
}

// literalWrites reports the fields a struct literal sets.
func (u *universe) literalWrites(lit *ast.CompositeLit, write func(*ast.Ident, *types.Var, bool)) {
	tv, ok := u.info.Types[lit]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			id, ok := kv.Key.(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := u.info.Uses[id].(*types.Var); ok && v.IsField() {
				write(id, v.Origin(), !u.isZero(kv.Value))
			}
			continue
		}
		if i < st.NumFields() {
			write(nil, st.Field(i).Origin(), !u.isZero(elt))
		}
	}
}

// isZero reports whether e is a constant zero value or nil.
func (u *universe) isZero(e ast.Expr) bool {
	tv, ok := u.info.Types[e]
	if !ok {
		return false
	}
	if tv.IsNil() {
		return true
	}
	if tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Bool:
		return !constant.BoolVal(tv.Value)
	case constant.String:
		return constant.StringVal(tv.Value) == ""
	case constant.Int, constant.Float, constant.Complex:
		return constant.Sign(tv.Value) == 0 && constant.Sign(constant.Imag(tv.Value)) == 0
	}
	return false
}

func (u *universe) callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := u.info.Uses[id].(*types.Func)
	return fn
}

// atomicWrite reports whether fn is a sync/atomic Add or Store.
func atomicWrite(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
		(strings.HasPrefix(fn.Name(), "Add") || strings.HasPrefix(fn.Name(), "Store"))
}

// discarded reports whether a call whose parent is n drops its result.
func discarded(n ast.Node) bool {
	_, ok := n.(*ast.ExprStmt)
	return ok
}

func isStruct(t types.Type) bool {
	_, ok := t.Underlying().(*types.Struct)
	return ok
}
