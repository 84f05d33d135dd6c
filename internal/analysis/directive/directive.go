// Package directive implements trimlint's suppression comments and the
// analyzer that polices them.
//
// A diagnostic from any trimlint analyzer can be suppressed with
//
//	//trimlint:allow <analyzer> <reason>
//
// placed either at the end of the offending line or alone on the line
// directly above it. The analyzer name must be one of the suite's
// analyzers and the reason is mandatory: an opt-out without a recorded
// justification is itself a diagnostic, so every exception in the tree
// explains why it is legitimate. Unknown directive verbs (anything after
// "trimlint:" other than "allow") are also diagnostics — a typoed
// directive that silently suppressed nothing would otherwise look like a
// working one.
package directive

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

const prefix = "//trimlint:"

// Known is the set of check names an allow directive may reference: the
// suite's analyzers, plus deadexport, the whole-module check of the root
// TestNoDeadExports (an exported function or method under internal/ that
// no non-test code references). trimlint's registry test asserts it stays
// in sync with both.
var Known = map[string]bool{
	"detrand":    true,
	"maporder":   true,
	"wirever":    true,
	"opswitch":   true,
	"deadexport": true,
}

// Analyzer validates every trimlint directive in the package: the verb
// must be "allow", the analyzer name must be one of Known, and a
// non-empty reason is required.
var Analyzer = &analysis.Analyzer{
	Name: "trimdirective",
	Doc:  "check that //trimlint: directives are well-formed (allow verb, known analyzer, mandatory reason)",
	Run:  runValidate,
}

func runValidate(pass *analysis.Pass) (interface{}, error) {
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, prefix)
				if !ok {
					continue
				}
				verb, rest, _ := strings.Cut(text, " ")
				if verb != "allow" {
					pass.Reportf(c.Pos(), "unknown trimlint directive %q: only //trimlint:allow <analyzer> <reason> is recognized", verb)
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if name == "" {
					pass.Reportf(c.Pos(), "trimlint:allow needs an analyzer name and a reason")
					continue
				}
				if !Known[name] {
					pass.Reportf(c.Pos(), "trimlint:allow names unknown analyzer %q", name)
					continue
				}
				if strings.TrimSpace(reason) == "" {
					pass.Reportf(c.Pos(), "trimlint:allow %s is missing its reason: every suppression must say why the exception is legitimate", name)
				}
			}
		}
	}
	return nil, nil
}

// Index is a per-package lookup of which (file, line) positions carry a
// well-formed allow directive for which analyzer. A directive covers its
// own line and the line below it, so both trailing comments and
// whole-line comments above the offending statement work.
type Index struct {
	fset  *token.FileSet
	allow map[string]map[int]map[string]bool // file → line → analyzer set
}

// New builds the suppression index for a pass.
func New(pass *analysis.Pass) *Index {
	return NewFiles(pass.Fset, pass.Files)
}

// NewFiles builds the suppression index for a parsed file set.
func NewFiles(fset *token.FileSet, files []*ast.File) *Index {
	idx := &Index{fset: fset, allow: make(map[string]map[int]map[string]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, prefix)
				if !ok {
					continue
				}
				verb, rest, _ := strings.Cut(text, " ")
				if verb != "allow" {
					continue
				}
				name, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if !Known[name] || strings.TrimSpace(reason) == "" {
					continue // malformed: reported by the validator, suppresses nothing
				}
				pos := fset.Position(c.Pos())
				lines := idx.allow[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					idx.allow[pos.Filename] = lines
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if lines[line] == nil {
						lines[line] = make(map[string]bool)
					}
					lines[line][name] = true
				}
			}
		}
	}
	return idx
}

// Allows reports whether a diagnostic from the named analyzer at pos is
// suppressed by a directive.
func (idx *Index) Allows(pos token.Pos, analyzer string) bool {
	p := idx.fset.Position(pos)
	return idx.allow[p.Filename][p.Line][analyzer]
}
