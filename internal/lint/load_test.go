package lint

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
	"strings"
	"sync"
)

// The two modules the checks read: the root module and the benchmark, which
// imports the root module's internal packages through a replace directive.
const (
	rootModule  = "aeon"
	benchModule = "aeon/benchmark"
)

// universe is every non-test package of both modules, type-checked from
// source in dependency order against one importer, so a type seen from two
// packages is one types.Object and interface satisfaction compares
// identical types. The standard library is read from the export data
// `go list -export` leaves in the build cache.
type universe struct {
	fset *token.FileSet
	root string // absolute path of the root module
	pkgs []*pkg // dependencies first
}

// pkg is one type-checked package.
type pkg struct {
	path, module string
	files        []*ast.File
	types        *types.Package
	info         *types.Info
}

var (
	loadOnce sync.Once
	loaded   *universe
	loadErr  error
)

// load returns the universe of the repository this package sits in, built
// once per test binary.
func load() (*universe, error) {
	loadOnce.Do(func() { loaded, loadErr = loadUniverse(filepath.Join("..", "..")) })
	return loaded, loadErr
}

// listed is one line of `go list`.
type listed struct {
	path, export, module, dir string
	files                     []string
}

// goList runs `go list -export -deps` over every package of the module in
// dir, dependencies first.
func goList(dir string) ([]listed, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-f",
		"{{.ImportPath}}\t{{.Export}}\t{{if .Module}}{{.Module.Path}}{{end}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listed
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Split(sc.Text(), "\t")
		if len(f) != 5 {
			return nil, fmt.Errorf("go list: unexpected line %q", sc.Text())
		}
		pkgs = append(pkgs, listed{f[0], f[1], f[2], f[3], strings.Fields(f[4])})
	}
	return pkgs, nil
}

// ownImporter resolves a package of either module to its source-checked
// types and anything else to export data.
type ownImporter struct {
	own map[string]*types.Package
	gc  types.Importer
}

func (i ownImporter) Import(path string) (*types.Package, error) {
	if p := i.own[path]; p != nil {
		return p, nil
	}
	return i.gc.Import(path)
}

func loadUniverse(root string) (*universe, error) {
	absRoot, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	rootPkgs, err := goList(absRoot)
	if err != nil {
		return nil, err
	}
	benchPkgs, err := goList(filepath.Join(absRoot, "benchmark"))
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	var own []listed
	seen := map[string]bool{}
	for _, l := range append(rootPkgs, benchPkgs...) {
		if exports[l.path] == "" {
			exports[l.path] = l.export
		}
		// The benchmark's listing repeats the root module's packages.
		if (l.module == rootModule || l.module == benchModule) && len(l.files) > 0 && !seen[l.path] {
			seen[l.path] = true
			own = append(own, l)
		}
	}
	u := &universe{fset: token.NewFileSet(), root: absRoot}
	imp := ownImporter{own: map[string]*types.Package{}}
	imp.gc = importer.ForCompiler(u.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	for _, l := range own {
		var files []*ast.File
		for _, name := range l.files {
			f, err := parser.ParseFile(u.fset, filepath.Join(l.dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if err := u.add(imp, l.path, l.module, files); err != nil {
			return nil, err
		}
	}
	return u, nil
}

// add type-checks one package's files against imp and appends the package
// to u, where imp resolves it from then on.
func (u *universe) add(imp ownImporter, path, module string, files []*ast.File) error {
	p := &pkg{path: path, module: module, files: files, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	var err error
	if p.types, err = (&types.Config{Importer: imp}).Check(path, u.fset, files, p.info); err != nil {
		return err
	}
	imp.own[path] = p.types
	u.pkgs = append(u.pkgs, p)
	return nil
}

// pkg returns the loaded package at path, or nil.
func (u *universe) pkg(path string) *pkg {
	for _, p := range u.pkgs {
		if p.path == path {
			return p
		}
	}
	return nil
}

// rel returns the position of pos relative to the root module, slash
// separated.
func (u *universe) rel(pos token.Pos) string {
	p := u.fset.Position(pos)
	r, err := filepath.Rel(u.root, p.Filename)
	if err != nil {
		r = p.Filename
	}
	return fmt.Sprintf("%s:%d", filepath.ToSlash(r), p.Line)
}
