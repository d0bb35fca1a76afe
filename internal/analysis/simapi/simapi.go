// Package simapi centralizes how dvelint's analyzers recognize the
// simulator's own API surface — the sim.Engine scheduling entry points and
// the packages that hold coherence-protocol state. Analyzers match by
// package name and type name rather than full import path so the same
// logic applies both to the real tree (dve/internal/sim) and to the
// GOPATH-style stand-in packages under internal/analysis/testdata/src.
package simapi

import (
	"go/ast"
	"go/types"
)

// scheduleMethods are the sim.Engine methods that defer a callback into the
// event queue: the closure entry points and their typed Fn fast paths.
var scheduleMethods = map[string]bool{
	"Schedule":       true,
	"ScheduleFn":     true,
	"ScheduleDaemon": true,
	"At":             true,
	"AtFn":           true,
}

// crossMethods are the sim.ParallelEngine cross-partition scheduling entry
// points: they defer a callback into *another* partition's queue via the
// epoch mailbox, so everything the closure-capture analyzers say about
// Engine scheduling applies to them too (more so — the callback runs on a
// different goroutine's partition).
var crossMethods = map[string]bool{
	"CrossAt":       true,
	"CrossAtFn":     true,
	"CrossSchedule": true,
}

// ScheduleCall reports whether call invokes one of the simulator's
// scheduling entry points, returning the method name: a sim.Engine
// scheduling method, or a sim.ParallelEngine cross-partition one.
func ScheduleCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	engine := scheduleMethods[sel.Sel.Name]
	cross := crossMethods[sel.Sel.Name]
	if !engine && !cross {
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", false
	}
	if engine && isNamed(selection.Recv(), "sim", "Engine") {
		return sel.Sel.Name, true
	}
	if cross && isNamed(selection.Recv(), "sim", "ParallelEngine") {
		return sel.Sel.Name, true
	}
	return "", false
}

// protocolStatePkgs are the packages whose types carry coherence, cache
// and directory state — the state whose mutation must not straddle a
// scheduling boundary.
var protocolStatePkgs = map[string]bool{
	"cache":     true,
	"coherence": true,
	"dve":       true,
	"mcheck":    true,
}

// IsProtocolState reports whether t (possibly behind pointers or slices)
// is a named type declared in one of the coherence-protocol packages.
func IsProtocolState(t types.Type) bool {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		case *types.Array:
			t = u.Elem()
			continue
		}
		break
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && protocolStatePkgs[pkg.Name()]
}

// isNamed reports whether t (or its pointee) is the named type pkgName.name.
func isNamed(t types.Type, pkgName, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}
