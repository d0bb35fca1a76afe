package dve

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// allowlistPath names the functions under internal/ that no binary links but
// that stay on purpose: one entry a line, "<linker symbol | file | directory>
// <reason>", where a file or directory entry covers every function in it.
const allowlistPath = "testdata/unlinked_allowlist.txt"

// TestEveryInternalFuncIsLinked fails when a function declared under
// internal/ is linked into none of the repo's binaries (the cmd/ and
// examples/ mains and the benchmark module's dvebenchmark) and is not
// allowlisted. It builds the binaries with inlining off in this module's
// packages, so every reachable function keeps a symbol, and reads the
// symbol tables with go tool nm. A stale allowlist entry, one that is now
// linked or no longer declared, fails it too.
func TestEveryInternalFuncIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	bin := t.TempDir() + string(filepath.Separator)
	noInline := "-gcflags=dve/...=-l"
	goCmd(t, ".", "build", noInline, "-o", bin, "./cmd/...", "./examples/...")
	goCmd(t, "benchmark", "build", noInline, "-o", bin, "./...")

	linked := map[string]bool{}
	bins, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bins {
		for _, line := range strings.Split(string(goCmd(t, ".", "tool", "nm", bin+b.Name())), "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked[stripTypeArgs(strings.Join(f[2:], " "))] = true
			}
		}
	}

	allow := readAllowlist(t)
	used := map[string]bool{}
	var unlinked strings.Builder
	n := 0
	for _, d := range declaredInternalFuncs(t) {
		key := allowKey(allow, d)
		if linked[d.sym] || d.alt != "" && linked[d.alt] {
			if key == d.sym {
				t.Errorf("%s: allowlisted but linked; delete its entry", d.sym)
				used[key] = true // reported here, not again as stale
			}
			continue
		}
		if key != "" {
			used[key] = true
			continue
		}
		n++
		fmt.Fprintf(&unlinked, "\n\t%s:%d: %s", d.file, d.line, d.sym)
	}
	for key := range allow {
		if !used[key] {
			t.Errorf("%s: stale allowlist entry, nothing unlinked under it", key)
		}
	}
	if n > 0 {
		t.Errorf("%d functions under internal/ are linked into no binary; delete them, or allowlist them in %s with a reason:%s",
			n, allowlistPath, unlinked.String())
	}
}

// internalFunc is one function declaration, named as the linker names it.
type internalFunc struct {
	sym  string // pkg.F, pkg.(*T).M or pkg.T.M
	alt  string // pkg.(*T).M for a value method: its pointer wrapper
	file string // repo-relative path of the declaring file
	line int
}

// declaredInternalFuncs parses the non-test Go files of every package under
// internal/, as go list selects them for this platform.
func declaredInternalFuncs(t *testing.T) []internalFunc {
	t.Helper()
	out := goCmd(t, ".", "list", "-f", "{{.ImportPath}}\t{{join .GoFiles \" \"}}", "./internal/...")
	fset := token.NewFileSet()
	var funcs []internalFunc
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, files, _ := strings.Cut(line, "\t")
		for _, name := range strings.Fields(files) {
			rel := strings.TrimPrefix(pkg, "dve/") + "/" + name
			file, err := parser.ParseFile(fset, rel, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				fn := internalFunc{sym: pkg + "." + fd.Name.Name, file: rel, line: fset.Position(fd.Pos()).Line}
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					recv := fd.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						fn.sym = pkg + ".(*" + recvName(star.X) + ")." + fd.Name.Name
					} else {
						fn.sym = pkg + "." + recvName(recv) + "." + fd.Name.Name
						fn.alt = pkg + ".(*" + recvName(recv) + ")." + fd.Name.Name
					}
				}
				funcs = append(funcs, fn)
			}
		}
	}
	return funcs
}

// recvName strips a receiver's type parameters: T[K, V] is named T.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// stripTypeArgs drops the bracketed type arguments the linker appends to
// generic instantiations: pkg.(*Set[go.shape.int]).Add is pkg.(*Set).Add.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readAllowlist returns the allowlist's keys; a line without a reason fails.
func readAllowlist(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(allowlistPath)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			t.Errorf("%s:%d: entry %q has no reason", allowlistPath, i+1, f[0])
		}
		allow[f[0]] = true
	}
	return allow
}

// allowKey returns the allowlist entry that covers fn: its symbol, its
// file, or a directory holding that file.
func allowKey(allow map[string]bool, fn internalFunc) string {
	if allow[fn.sym] {
		return fn.sym
	}
	if allow[fn.file] {
		return fn.file
	}
	for dir := filepath.Dir(fn.file); dir != "."; dir = filepath.Dir(dir) {
		if allow[dir+"/"] {
			return dir + "/"
		}
	}
	return ""
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out
}
