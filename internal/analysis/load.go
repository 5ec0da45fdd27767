package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
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
)

// The loader walks a Go module by directory, selects each directory's files
// the way `go build` does (go/build evaluates file-name suffixes and
// //go:build lines for the host), and type-checks the packages from source
// in dependency order through one importer, so an object is the same
// types.Object in the package that declares it and in every package that
// uses it. Everything outside the module — the standard library — is typed
// from the compiler's export data: one `go list -export -deps` call names the
// export files and the gc importer reads them. A type error is fatal: the
// analyzers match types.Objects, and a package that does not type-check has
// none to match.

// Package is one loaded, parsed and type-checked package.
type Package struct {
	// Path is the import path ("repro/internal/sched"); standalone
	// directories loaded outside a module use their base name.
	Path string
	// Name is the package clause name.
	Name string
	// Dir is the absolute directory.
	Dir string

	Fset  *token.FileSet
	Files []*ast.File

	Info     *types.Info
	TypesPkg *types.Package
}

// Module is a loaded module: every package under the root, keyed by path.
type Module struct {
	Root string
	Path string
	Fset *token.FileSet
	pkgs map[string]*Package
	imp  types.Importer
}

// Packages returns the module's packages sorted by import path — the loader
// itself must be deterministic, for obvious reasons.
func (m *Module) Packages() []*Package {
	out := make([]*Package, 0, len(m.pkgs))
	for _, p := range m.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		d = parent
	}
}

// LoadModule loads and type-checks every package in the module rooted at root.
func LoadModule(root string) (*Module, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := &Module{Root: root, Path: modPath, Fset: token.NewFileSet(), pkgs: map[string]*Package{}}

	var dirs []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	for _, dir := range dirs {
		pkg, err := parseDir(m.Fset, dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no buildable Go files
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		if rel == "." {
			pkg.Path = modPath
		} else {
			pkg.Path = modPath + "/" + filepath.ToSlash(rel)
		}
		m.pkgs[pkg.Path] = pkg
	}

	// Type-check in dependency order so intra-module imports resolve to the
	// packages already checked.
	imp, err := newImporter(m.Fset, root, m.Packages(), m.pkgs)
	if err != nil {
		return nil, err
	}
	m.imp = imp
	done := map[string]bool{}
	var visit func(*Package) error
	visit = func(pkg *Package) error {
		if done[pkg.Path] {
			return nil
		}
		done[pkg.Path] = true
		for _, d := range importPaths(pkg) {
			if dep, ok := m.pkgs[d]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		return checkPackage(pkg, imp)
	}
	for _, pkg := range m.Packages() {
		if err := visit(pkg); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// LoadDir loads a single standalone directory (used for test fixtures under
// testdata). Its import path is the directory's base name; its imports
// resolve through `go list` run in that directory, so a fixture inside the
// module may import the module's packages.
func LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkg, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	pkg.Path = filepath.Base(dir)
	imp, err := newImporter(fset, dir, []*Package{pkg}, nil)
	if err != nil {
		return nil, err
	}
	if err := checkPackage(pkg, imp); err != nil {
		return nil, err
	}
	return pkg, nil
}

// parseDir parses the non-test Go files `go build` would compile in dir on
// this host, or returns nil when there are none.
func parseDir(fset *token.FileSet, dir string) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) || (err == nil && len(bp.GoFiles) == 0) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	pkg := &Package{Dir: dir, Fset: fset, Name: bp.Name}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	return pkg, nil
}

// importPaths returns the sorted set of import paths of a parsed package.
func importPaths(pkg *Package) []string {
	seen := map[string]bool{}
	for _, f := range pkg.Files {
		for _, im := range f.Imports {
			seen[importPathOf(im)] = true
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// checkPackage type-checks a parsed package and fails on its first error.
func checkPackage(pkg *Package, imp types.Importer) error {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	tpkg, err := (&types.Config{Importer: imp}).Check(pkg.Path, pkg.Fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("analysis: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Info = info
	pkg.TypesPkg = tpkg
	return nil
}

// moduleImporter resolves intra-module imports to the packages checked from
// source and everything else through the compiler's export data.
type moduleImporter struct {
	module map[string]*Package
	gc     types.Importer
}

func (i *moduleImporter) Import(p string) (*types.Package, error) {
	if pkg, ok := i.module[p]; ok {
		if pkg.TypesPkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", p)
		}
		return pkg.TypesPkg, nil
	}
	return i.gc.Import(p)
}

// exportFiles maps an import path to its compiled export data, filled by
// `go list` once per path for the life of the process.
var exportFiles struct {
	sync.Mutex
	byPath map[string]string
}

// newImporter lists the export data of every import of pkgs outside module
// — one `go list -export -deps` call in dir for the paths not listed yet —
// and returns the importer checkPackage uses.
func newImporter(fset *token.FileSet, dir string, pkgs []*Package, module map[string]*Package) (types.Importer, error) {
	exportFiles.Lock()
	defer exportFiles.Unlock()
	if exportFiles.byPath == nil {
		exportFiles.byPath = map[string]string{}
	}
	var missing []string
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		for _, p := range importPaths(pkg) {
			if _, listed := exportFiles.byPath[p]; !listed && module[p] == nil && p != "unsafe" && !seen[p] {
				seen[p] = true
				missing = append(missing, p)
			}
		}
	}
	if len(missing) > 0 {
		// GOPROXY=off: every dependency is on disk already, and a missing
		// one must fail here rather than reach for the network.
		cmd := exec.Command("go", append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}, missing...)...)
		cmd.Dir = dir
		cmd.Env = append(os.Environ(), "GOPROXY=off")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("analysis: go list -export: %v: %s", err, strings.TrimSpace(stderr.String()))
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if p, file, _ := strings.Cut(line, "\t"); file != "" {
				exportFiles.byPath[p] = file
			}
		}
	}
	lookup := func(p string) (io.ReadCloser, error) {
		exportFiles.Lock()
		file, ok := exportFiles.byPath[p]
		exportFiles.Unlock()
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %s", p)
		}
		return os.Open(file)
	}
	return &moduleImporter{module: module, gc: importer.ForCompiler(fset, "gc", lookup)}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}
