package analysis

import (
	"go/ast"
	"go/types"
)

// callers is what testonly needs to know about the whole program:
// every function some non-test file references, and, by method name,
// every interface that declares a method of that name.
type callers struct {
	used   map[*types.Func]bool
	ifaces map[string][]*types.Interface
	seen   map[*types.Interface]bool
}

// collectCallers builds the caller view from the Uses of every loaded
// package. Generic instances count as uses of their origin, and a
// function's references to itself (recursion) count as no caller.
// Interfaces come from every interface type in the loaded packages and
// in the packages they import, the standard library and the universe's
// error included.
func collectCallers(pkgs []*Package) *callers {
	c := &callers{used: map[*types.Func]bool{}, ifaces: map[string][]*types.Interface{}, seen: map[*types.Interface]bool{}}
	c.addInterface(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var addScope func(*types.Package)
	addScope = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			c.addInterface(p.Scope().Lookup(name).Type())
		}
		for _, imp := range p.Imports() {
			addScope(imp)
		}
	}
	for _, pkg := range pkgs {
		addScope(pkg.Types)
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if s := fn.Scope(); s != nil && s.Contains(id.Pos()) {
				continue
			}
			c.used[fn] = true
		}
		for _, tv := range pkg.Info.Types {
			c.addInterface(tv.Type)
		}
	}
	return c
}

func (c *callers) addInterface(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok || c.seen[it] {
		return
	}
	c.seen[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		c.ifaces[name] = append(c.ifaces[name], it)
	}
}

// viaInterface reports whether method fn may be reached through an
// interface: its receiver type T, or *T, implements an interface that
// declares a method of fn's name.
func (c *callers) viaInterface(fn *types.Func) bool {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	for _, it := range c.ifaces[fn.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// TestOnly flags functions and methods under internal/, exported or
// not, that no non-test file references: code only tests reach is a
// second path or an unread format that the commands never run, and an
// unexported helper is left dead when the code that called it goes.
// init functions are run, not referenced, and are exempt. Every module
// package, cmd/ and examples/ included, counts as a caller, and so does the
// root package of each nested module (perfbench), which is loaded for
// its references only. A method is exempt when its receiver type, or a
// pointer to it, implements an interface that declares it, since it may
// be reached through that interface. The check needs the whole program,
// so a Pass without that view skips it.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "flag functions and methods under internal/, exported or not, that only tests reference",
	Run: func(p *Pass) {
		if p.callers == nil || !pathHasSegment(p.Path, "internal") {
			return
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil && fd.Name.Name == "init" {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok || p.callers.used[fn] {
					continue
				}
				name := fn.Name()
				if fd.Recv != nil {
					if p.callers.viaInterface(fn) {
						continue
					}
					name = recvTypeName(fn) + "." + name
				}
				p.ReportFixf(fd.Name.Pos(),
					"delete it with the tests that only it needs, or keep the file with a //pvclint:ignore testonly above its package clause citing the DESIGN.md entry that names it",
					"%s is referenced by no non-test code", name)
			}
		}
	},
}

// recvTypeName names a method's receiver type without pointer or type
// arguments.
func recvTypeName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
