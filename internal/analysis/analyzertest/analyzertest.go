// Package analyzertest is an offline stand-in for
// golang.org/x/tools/go/analysis/analysistest, which the container's
// toolchain does not vendor (it would drag in go/packages and a build
// cache). It keeps analysistest's conventions — a GOPATH-style testdata
// tree (testdata/src/<pkg>/*.go) and `// want "regexp"` expectation
// comments — and drives analyzers through the load package, so analyzer
// tests read the same as they would against the real harness:
//
//	analyzertest.Run(t, analyzertest.TestData(t), detrand.Analyzer, "a")
//
// A want comment names one expected diagnostic on its own line; multiple
// quoted regexps on one comment expect multiple diagnostics there. Every
// diagnostic must be matched by a want and every want by a diagnostic.
package analyzertest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/load"
)

// TestData returns the caller's testdata directory, like
// analysistest.TestData.
//
//trimlint:allow deadexport fixture: every analyzer's tests run through it
func TestData(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(1)
	if !ok {
		t.Fatal("analyzertest: cannot locate caller for testdata")
	}
	return filepath.Join(filepath.Dir(file), "testdata")
}

// Run loads each package from testdata/src and checks the analyzer's
// diagnostics against the // want comments in its files.
//
//trimlint:allow deadexport fixture: every analyzer's tests run through it
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	src := filepath.Join(testdata, "src")
	loader := load.New(func(path string) (string, bool) {
		dir := filepath.Join(src, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, true
		}
		return "", false
	})
	for _, pkgPath := range pkgs {
		pkg, err := loader.Load(pkgPath)
		if err != nil {
			t.Errorf("loading %s: %v", pkgPath, err)
			continue
		}
		diags, err := RunPass(a, loader.Fset, pkg)
		if err != nil {
			t.Errorf("running %s on %s: %v", a.Name, pkgPath, err)
			continue
		}
		check(t, loader.Fset, pkg.Files, a.Name, pkgPath, diags)
	}
}

// RunPass executes an analyzer (and, recursively, its Requires) over one
// loaded package, returning the diagnostics it reported.
func RunPass(a *analysis.Analyzer, fset *token.FileSet, pkg *load.Package) ([]analysis.Diagnostic, error) {
	results := make(map[*analysis.Analyzer]interface{})
	var diags []analysis.Diagnostic
	var run func(a *analysis.Analyzer, capture bool) error
	run = func(a *analysis.Analyzer, capture bool) error {
		if _, done := results[a]; done {
			return nil
		}
		for _, req := range a.Requires {
			if err := run(req, false); err != nil {
				return err
			}
		}
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      pkg.Files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			TypesSizes: types.SizesFor("gc", runtime.GOARCH),
			ResultOf:   results,
			Report: func(d analysis.Diagnostic) {
				if capture {
					diags = append(diags, d)
				}
			},
		}
		res, err := a.Run(pass)
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		results[a] = res
		return nil
	}
	if err := run(a, true); err != nil {
		return nil, err
	}
	return diags, nil
}

// wantRe extracts the quoted regexps of a want comment.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

type expectation struct {
	line int
	re   *regexp.Regexp
	used bool
}

func check(t *testing.T, fset *token.FileSet, files []*ast.File, name, pkgPath string, diags []analysis.Diagnostic) {
	t.Helper()
	// file base name → line → expectations
	wants := make(map[string][]*expectation)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, pat := range quotedStrings(t, pos, m[1]) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
						continue
					}
					wants[pos.Filename] = append(wants[pos.Filename], &expectation{line: pos.Line, re: re})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants[pos.Filename] {
			if !w.used && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s [%s/%s]: unexpected diagnostic: %s", pos, pkgPath, name, d.Message)
		}
	}
	for file, ws := range wants {
		for _, w := range ws {
			if !w.used {
				t.Errorf("%s:%d [%s/%s]: expected diagnostic matching %q, got none", file, w.line, pkgPath, name, w.re)
			}
		}
	}
}

// quotedStrings parses the sequence of Go string literals after "want".
func quotedStrings(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			t.Errorf("%s: want expectation must be quoted strings, got %q", pos, s)
			return out
		}
		quote := s[0]
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == quote && (quote == '`' || s[i-1] != '\\') {
				end = i
				break
			}
		}
		if end < 0 {
			t.Errorf("%s: unterminated want string in %q", pos, s)
			return out
		}
		lit, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Errorf("%s: bad want string %q: %v", pos, s[:end+1], err)
			return out
		}
		out = append(out, lit)
		s = strings.TrimSpace(s[end+1:])
	}
	return out
}
