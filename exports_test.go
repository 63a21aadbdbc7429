package fxhenn

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that may
// stay without a non-test reference. Keys are "pkg.Name" for a top-level
// declaration and "pkg.Type.Method" for a method, pkg being the directory
// under internal/. Every entry says why it stays; an entry that gains a
// non-test reference, or whose declaration is gone, fails the guard so the
// list cannot outlive its reasons.
var exportAllowlist = map[string]string{
	"ring.NewBasisExtender":           "ROADMAP item 12 option (d): fast basis extension for the MNIST parameter fix",
	"ring.BasisExtender.ExtendCoeffs": "ROADMAP item 12 option (d): fast basis extension for the MNIST parameter fix",
	"hecnn.Network.EstimatePrecision": "ROADMAP item 9: the per-layer precision ledger starts from this estimate",
	"mlaas.CheckAccounting":           "ROADMAP item 5's accounting gauge; every cluster test asserts this invariant",
	"gateway.Gateway.RemoveShard":     "rolling drain, and the deferred registry-backed membership",
	"cnn.NewMNISTDeepNet":             "test fixture shared by the cnn and hecnn tests",
	"cnn.NewTinyPoolNet":              "test fixture shared by the cnn and hecnn tests",
}

// stdlibMethods are method names that satisfy standard-library interfaces
// (fmt, errors, encoding, io, net, sort, heap, flag, ...): the callers of
// these live in the standard library, so a name match in this module is
// not expected.
var stdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true, "Timeout": true, "Temporary": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true,
	"UnmarshalText": true, "MarshalBinary": true, "UnmarshalBinary": true,
	"Read": true, "Write": true, "Close": true, "ReadFrom": true,
	"WriteTo": true, "ReadByte": true, "WriteByte": true, "Seek": true,
	"LocalAddr": true, "RemoteAddr": true, "SetDeadline": true,
	"SetReadDeadline": true, "SetWriteDeadline": true, "Accept": true,
	"Addr": true, "Network": true, "Len": true, "Less": true, "Swap": true,
	"Push": true, "Pop": true, "Set": true, "Get": true, "ServeHTTP": true,
}

type exportDecl struct {
	key  string // allowlist key
	name string // identifier matched against references
	pos  token.Position
}

// TestExportedSurfaceIsUsed fails on any exported identifier under
// internal/ whose name appears in no non-test file of the repository
// (bench/, cmd/ and examples/ included) other than in its own
// declaration. It matches by name only, so it can miss dead code but
// never flags code that runs.
func TestExportedSurfaceIsUsed(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	var decls []exportDecl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				uses[id.Name]++
			}
			return true
		})
		if pkg, ok := internalPackage(path); ok {
			decls = append(decls, exportedDecls(fset, pkg, f)...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each declaration's own identifier is one use of its name.
	for _, d := range decls {
		uses[d.name]--
	}

	declared := map[string]bool{}
	var unused []string
	for _, d := range decls {
		declared[d.key] = true
		_, allowed := exportAllowlist[d.key]
		switch {
		case uses[d.name] > 0 && allowed:
			t.Errorf("%s: %s is on the export allowlist but now has a non-test reference; drop the entry", d.pos, d.key)
		case uses[d.name] <= 0 && !allowed:
			unused = append(unused, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests reference it; delete it, unexport it, or allowlist it with a reason", u)
	}
	for key := range exportAllowlist {
		if !declared[key] {
			t.Errorf("export allowlist entry %s names no declaration; drop it", key)
		}
	}
}

// internalPackage returns the package directory under internal/ that path
// lies in.
func internalPackage(path string) (string, bool) {
	dir := filepath.ToSlash(filepath.Dir(path))
	pkg, ok := strings.CutPrefix(dir, "internal/")
	return pkg, ok
}

// exportedDecls lists the exported top-level funcs, methods, types, vars
// and consts of f.
func exportedDecls(fset *token.FileSet, pkg string, f *ast.File) []exportDecl {
	var out []exportDecl
	add := func(key string, id *ast.Ident) {
		out = append(out, exportDecl{key: pkg + "." + key, name: id.Name, pos: fset.Position(id.Pos())})
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if !decl.Name.IsExported() {
				continue
			}
			if decl.Recv == nil {
				add(decl.Name.Name, decl.Name)
				continue
			}
			recv := receiverType(decl.Recv.List[0].Type)
			if ast.IsExported(recv) && !stdlibMethods[decl.Name.Name] {
				add(recv+"."+decl.Name.Name, decl.Name)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						add(spec.Name.Name, spec.Name)
					}
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.IsExported() {
							add(id.Name, id)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverType returns the type name of a method receiver, without pointer
// or type parameters.
func receiverType(e ast.Expr) string {
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
			return ""
		}
	}
}
