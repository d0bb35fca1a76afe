// Package lockhold flags a sync.Mutex or sync.RWMutex held across a
// blocking operation — the coordinator/leaseQueue deadlock shape. A lock
// that is held while its owner parks on a channel, sleeps, waits on a
// WaitGroup, or performs an HTTP round-trip stalls every other user of
// that lock for the duration; if the blocked operation itself needs the
// lock to make progress (a handler that can't run because the heartbeat
// path holds the registry mutex), the stall is a deadlock. The -chaos
// harness can only catch this shape when the scheduler happens to park the
// right goroutines; this analyzer catches it on every build.
//
// The critical section is computed flow-insensitively from source
// positions: it opens at x.mu.Lock() / RLock() and closes at the first
// later x.mu.Unlock() / RUnlock() on the same receiver path, or at the end
// of the function when the unlock is deferred (or missing). Inside the
// section, both direct blocking operations and calls to same-package
// functions that transitively block (via the interproc graph) are
// reported.
//
// Exemptions, chosen to keep the tree's idiomatic code clean:
//
//   - sync.Cond.Wait is never reported when called directly under the
//     lock: Wait atomically releases the condition's mutex, so waiting
//     under it is the intended pattern (leaseQueue.acquire);
//   - goroutine bodies and escaping function literals are not charged to
//     the spawning frame (a `go` launched under the lock does not hold
//     it);
//   - blocking calls reached through another package are out of scope —
//     the model covers the standard library's blocking surface plus
//     same-package helpers.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"dve/internal/analysis"
	"dve/internal/analysis/interproc"
)

// Analyzer reports mutexes held across blocking operations.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc: "a sync.Mutex/RWMutex held across a blocking operation (channel op, " +
		"select, sleep, WaitGroup.Wait, HTTP round-trip) stalls every other " +
		"user of the lock; move the blocking call outside the critical section",
	Run: run,
}

// region is one critical section inside a function.
type region struct {
	base  string // receiver path, e.g. "s.mu" or "q.mu"
	start token.Pos
	end   token.Pos
}

func run(pass *analysis.Pass) error {
	g := interproc.Build(pass)
	for _, info := range sortedInfos(g) {
		checkFunc(pass, g, info)
	}
	return nil
}

// sortedInfos returns the graph's functions in source order so diagnostics
// are deterministic before the driver's global sort.
func sortedInfos(g *interproc.Graph) []*interproc.FuncInfo {
	out := make([]*interproc.FuncInfo, 0, len(g.Funcs))
	for _, info := range g.Funcs {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

func checkFunc(pass *analysis.Pass, g *interproc.Graph, info *interproc.FuncInfo) {
	regions := lockRegions(pass, info.Decl)
	if len(regions) == 0 {
		return
	}
	for _, r := range regions {
		for _, op := range info.Direct {
			if op.Pos <= r.start || op.Pos >= r.end {
				continue
			}
			if op.Kind == interproc.KindCondWait {
				continue // Wait releases the condition's own lock
			}
			pass.Reportf(op.Pos,
				"%s is held across %s (locked at line %d): the lock's other users stall until this unblocks; move the blocking operation outside the critical section",
				r.base, op.What, pass.Fset.Position(r.start).Line)
		}
		for _, cs := range info.Calls {
			if cs.Pos <= r.start || cs.Pos >= r.end {
				continue
			}
			op, chain, blocks := g.Blocking(cs.Fn)
			if !blocks {
				continue
			}
			pass.Reportf(cs.Pos,
				"%s is held across a call to %s, which blocks on %s%s (locked at line %d): move the blocking call outside the critical section",
				r.base, cs.Fn.Name(), op.What, chainString(cs.Fn, chain),
				pass.Fset.Position(r.start).Line)
		}
	}
}

// chainString renders the interprocedural path for the diagnostic, e.g.
// " (via flush -> drain)". Empty when the callee blocks directly.
func chainString(first *types.Func, chain []*types.Func) string {
	if len(chain) == 0 {
		return ""
	}
	parts := []string{first.Name()}
	for _, fn := range chain {
		parts = append(parts, fn.Name())
	}
	return " (via " + strings.Join(parts, " -> ") + ")"
}

// lockRegions extracts every critical section of the function. Deferred
// unlocks (and missing unlocks) extend the region to the function's end.
func lockRegions(pass *analysis.Pass, fd *ast.FuncDecl) []region {
	type unlockKind struct {
		base string
		read bool // RUnlock
	}
	var locks []struct {
		base string
		read bool // RLock
		pos  token.Pos
	}
	unlocks := map[unlockKind][]token.Pos{}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		// Escaping literals and goroutine bodies run in another frame:
		// their locks and unlocks are theirs, not this function's.
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// A deferred unlock releases only at return, so it never closes
			// a region early: record nothing and the region runs to the
			// function's end. Deferred literals likewise run at return;
			// counting their unlocks at the defer's position would close
			// regions that are still open, so skip the whole statement.
			return false
		case *ast.CallExpr:
			if ok, base, name := lockCall(pass, x); ok {
				switch name {
				case "Lock", "RLock":
					locks = append(locks, struct {
						base string
						read bool
						pos  token.Pos
					}{base, name == "RLock", x.Pos()})
				case "Unlock", "RUnlock":
					k := unlockKind{base, name == "RUnlock"}
					unlocks[k] = append(unlocks[k], x.Pos())
				}
			}
		}
		return true
	})

	var out []region
	for _, l := range locks {
		end := fd.Body.End()
		// A Lock closes at Unlock, an RLock at RUnlock.
		for _, upos := range unlocks[unlockKind{l.base, l.read}] {
			if upos > l.pos && upos < end {
				end = upos
			}
		}
		out = append(out, region{base: l.base, start: l.pos, end: end})
	}
	return out
}

// lockCall reports whether call is <base>.Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex (directly or promoted through embedding),
// returning the receiver path string and the method name.
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (ok bool, base, name string) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return false, "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return false, "", ""
	}
	fn, _ := pass.TypesInfo.ObjectOf(sel.Sel).(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false, "", ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false, "", ""
	}
	return true, types.ExprString(sel.X), sel.Sel.Name
}
