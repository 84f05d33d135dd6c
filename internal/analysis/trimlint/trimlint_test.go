package trimlint_test

import (
	"testing"

	"repro/internal/analysis/directive"
	"repro/internal/analysis/trimlint"
)

// moduleChecks are the checks that run over the whole module instead of
// one package at a time, so they are not analyzers: deadexport is the root
// TestNoDeadExports.
var moduleChecks = []string{"deadexport"}

// TestRegistryMatchesDirectives pins directive.Known to the suite roster
// plus the module checks: a check that cannot be named in an allow
// directive would be unsuppressable, and a Known entry that nothing checks
// would let authors write directives that suppress nothing.
func TestRegistryMatchesDirectives(t *testing.T) {
	checked := make(map[string]bool)
	for _, name := range moduleChecks {
		checked[name] = true
		if !directive.Known[name] {
			t.Errorf("module check %s is not in directive.Known: its findings could never be suppressed", name)
		}
	}
	suite := make(map[string]bool)
	for _, a := range trimlint.Analyzers() {
		if a.Name == directive.Analyzer.Name {
			continue // the directive validator polices suppressions, it has none itself
		}
		suite[a.Name] = true
		if !directive.Known[a.Name] {
			t.Errorf("analyzer %s is in the suite but not in directive.Known: its diagnostics could never be suppressed", a.Name)
		}
	}
	for name := range directive.Known {
		if !suite[name] && !checked[name] {
			t.Errorf("directive.Known lists %s but no analyzer or module check has that name: allows naming it would silently do nothing", name)
		}
	}
	if len(suite) != 4 {
		t.Errorf("suite has %d analyzers besides the directive validator, want 4", len(suite))
	}
}

func TestDocsNonEmpty(t *testing.T) {
	for _, a := range trimlint.Analyzers() {
		if a.Doc == "" {
			t.Errorf("analyzer %s has no Doc; go vet -vettool help output would be blank", a.Name)
		}
	}
}
