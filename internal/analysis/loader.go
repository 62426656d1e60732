package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Package is one fully type-checked package as pvclint sees it.
type Package struct {
	Path  string // import path the package was loaded under
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// ExtraFile is a synthetic source file injected into a package at load
// time. The test harness uses it to "plant" violations (e.g. a
// time.Now in internal/perfmodel) without touching the tree.
type ExtraFile struct {
	Name string // file name to report positions under
	Src  string
}

// Loader type-checks the module's packages with nothing but the
// standard library: module-internal import paths are resolved straight
// from the module directory tree, everything else is delegated to the
// "source" compiler importer (which compiles the standard library from
// GOROOT source, so no pre-built export data is needed).
//
// LoadAll runs in two parallel phases over one shared cache: every
// directory is parsed concurrently (token.FileSet is synchronized),
// then packages are type-checked in dependency waves — all packages of
// a wave in parallel, each importing only packages completed in
// earlier waves, so no path is ever loaded twice and go/types never
// sees a half-built dependency. The source importer for the standard
// library is not documented as concurrency-safe, so it is serialized
// behind its own mutex.
type Loader struct {
	Fset   *token.FileSet
	Root   string // module root: the directory holding go.mod
	Module string // module path declared in go.mod

	// Extra maps an import path to synthetic files appended to that
	// package's real sources when it is loaded.
	Extra map[string][]ExtraFile

	std   types.Importer
	mu    sync.Mutex // guards pkgs, loading, parsed
	stdMu sync.Mutex // serializes the source importer

	pkgs    map[string]*Package
	loading map[string]bool
	parsed  map[string][]*ast.File // pre-parsed files from LoadAll's parse phase
}

// NewLoader returns a Loader for the module rooted at root, reading the
// module path from root/go.mod.
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: %s is not a module root: %w", abs, err)
	}
	mod := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			mod = strings.TrimSpace(rest)
			break
		}
	}
	if mod == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", abs)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		Root:    abs,
		Module:  mod,
		Extra:   map[string][]ExtraFile{},
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
		parsed:  map[string][]*ast.File{},
	}, nil
}

// Import implements types.Importer so packages under analysis can
// depend on each other and on the standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	p, ok := l.pkgs[path]
	l.mu.Unlock()
	if ok {
		return p.Types, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
		pkg, err := l.LoadDir(filepath.Join(l.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
}

// parseDir parses the non-test Go files of dir (plus any Extra files
// registered for asPath).
func (l *Loader) parseDir(dir, asPath string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	for _, x := range l.Extra[asPath] {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, x.Name), x.Src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return files, nil
}

// LoadDir parses and type-checks the single package in dir, registering
// it under the import path asPath. Test files are skipped: pvclint
// checks shipped code, and _test.go files legitimately measure wall
// time and compare exact floats. Subsequent loads of the same path
// return the cached package.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	l.mu.Lock()
	if p, ok := l.pkgs[asPath]; ok {
		l.mu.Unlock()
		return p, nil
	}
	if l.loading[asPath] {
		l.mu.Unlock()
		return nil, fmt.Errorf("analysis: import cycle through %s", asPath)
	}
	l.loading[asPath] = true
	files := l.parsed[asPath]
	delete(l.parsed, asPath)
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.loading, asPath)
		l.mu.Unlock()
	}()

	if files == nil {
		var err error
		files, err = l.parseDir(dir, asPath)
		if err != nil {
			return nil, err
		}
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(asPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", asPath, err)
	}
	pkg := &Package{Path: asPath, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.mu.Lock()
	l.pkgs[asPath] = pkg
	l.mu.Unlock()
	return pkg, nil
}

// moduleDirs lists every package directory of the module: each
// directory under Root containing non-test Go files, skipping testdata
// trees, hidden directories, and nested modules. It also lists the root
// directory of each nested module it skipped. Both are sorted by path.
func (l *Loader) moduleDirs() (dirs, nested []string, err error) {
	err = filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.Root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				nested = append(nested, path)
				return filepath.SkipDir
			}
		}
		if ok, err := hasGoFiles(path); err != nil {
			return err
		} else if ok {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(dirs)
	sort.Strings(nested)
	return dirs, nested, nil
}

// hasGoFiles reports whether dir holds a non-test Go file.
func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// loadNestedRoots type-checks the root package of every nested module
// (perfbench), after LoadAll. Such a package imports the module's
// packages through the same cache, so its references resolve to the
// objects pvclint analyzes.
func (l *Loader) loadNestedRoots() ([]*Package, error) {
	_, nested, err := l.moduleDirs()
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range nested {
		if ok, err := hasGoFiles(dir); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		path, err := l.pathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// pathFor maps a module directory to its import path.
func (l *Loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// LoadAll loads every package of the module. Results are sorted by
// import path. Packages are parsed concurrently, then type-checked in
// dependency waves so independent subtrees check in parallel over the
// shared import cache.
func (l *Loader) LoadAll() ([]*Package, error) {
	dirs, _, err := l.moduleDirs()
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(dirs))
	for i, dir := range dirs {
		if paths[i], err = l.pathFor(dir); err != nil {
			return nil, err
		}
	}

	// Phase 1: parse everything in parallel. Errors are surfaced in
	// sorted-path order so the first reported failure is deterministic.
	deps := make([][]string, len(dirs))
	parseErrs := make([]error, len(dirs))
	l.forEachIndex(len(dirs), func(i int) {
		files, err := l.parseDir(dirs[i], paths[i])
		if err != nil {
			parseErrs[i] = err
			return
		}
		l.mu.Lock()
		if _, done := l.pkgs[paths[i]]; !done {
			l.parsed[paths[i]] = files
		}
		l.mu.Unlock()
		for _, f := range files {
			for _, imp := range f.Imports {
				p, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if p == l.Module || strings.HasPrefix(p, l.Module+"/") {
					deps[i] = append(deps[i], p)
				}
			}
		}
	})
	for _, err := range parseErrs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2: type-check in waves. A package is ready once all its
	// module-internal dependencies are done; each wave runs in
	// parallel, so the recursive Import calls inside go/types only ever
	// hit completed cache entries.
	idxOf := map[string]int{}
	for i, p := range paths {
		idxOf[p] = i
	}
	done := make([]bool, len(dirs))
	checkErrs := make([]error, len(dirs))
	for remaining := len(dirs); remaining > 0; {
		var wave []int
		for i := range dirs {
			if done[i] {
				continue
			}
			ready := true
			for _, d := range deps[i] {
				if j, ok := idxOf[d]; ok && !done[j] && j != i {
					ready = false
					break
				}
			}
			if ready {
				wave = append(wave, i)
			}
		}
		if len(wave) == 0 {
			// Import cycle: fall back to a serial load of the first
			// unfinished package so the error names the cycle.
			for i := range dirs {
				if !done[i] {
					_, err := l.LoadDir(dirs[i], paths[i])
					return nil, err
				}
			}
		}
		l.forEachIndex(len(wave), func(w int) {
			i := wave[w]
			if _, err := l.LoadDir(dirs[i], paths[i]); err != nil {
				checkErrs[i] = err
			}
		})
		for _, err := range checkErrs {
			if err != nil {
				return nil, err
			}
		}
		for _, i := range wave {
			done[i] = true
		}
		remaining -= len(wave)
	}

	pkgs := make([]*Package, len(dirs))
	l.mu.Lock()
	for i, p := range paths {
		pkgs[i] = l.pkgs[p]
	}
	l.mu.Unlock()
	return pkgs, nil
}

// forEachIndex runs fn(0..n-1) on up to GOMAXPROCS goroutines.
func (l *Loader) forEachIndex(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
