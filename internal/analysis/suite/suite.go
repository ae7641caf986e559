// Package suite catalogues the ebavet analyzers: the machine-checked
// form of the repo's hardest-won conventions. Each analyzer enforces
// one contract that is otherwise guarded only by tests that catch
// violations probabilistically (-race, the CI shard-equivalence
// smokes); see the package docs of the individual analyzers for the
// precise rules and README's "Static analysis" section for the
// workflow.
package suite

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/arenasafety"
	"repro/internal/analysis/ctxcause"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/errtaxonomy"
)

// Contracts maps each analyzer name to the one-line contract it
// enforces, as printed by `ebavet -list`.
var Contracts = map[string]string{
	"arenasafety": "pooled graph.Ref analyzers from AcquireRef/AcquireRefNoCK are released or handed off",
	"determinism": "no map-iteration order or ambient time/rand reaches the digest-to-merge pipeline (//eba:nondeterministic-ok to waive a line)",
	"ctxcause":    "packages establishing WithCancelCause surface context.Cause, never a bare ctx.Err(), and cancel on all paths",
	"errtaxonomy": "sentinel errors are wrapped with %w and matched with errors.Is; exit-code mappers keep their errors.Is guards",
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		arenasafety.Analyzer,
		ctxcause.Analyzer,
		determinism.Analyzer,
		errtaxonomy.Analyzer,
	}
}

// Select returns the suite minus the named analyzers. Unknown names
// are an error, so a typo cannot silently disable nothing.
func Select(disabled []string) ([]*analysis.Analyzer, error) {
	drop := map[string]bool{}
	for _, d := range disabled {
		d = strings.TrimSpace(d)
		if d == "" {
			continue
		}
		if _, ok := Contracts[d]; !ok {
			return nil, fmt.Errorf("ebavet: unknown analyzer %q (have: %s)", d, strings.Join(Names(), ", "))
		}
		drop[d] = true
	}
	var out []*analysis.Analyzer
	for _, a := range Analyzers() {
		if !drop[a.Name] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("ebavet: -disable removed every analyzer")
	}
	return out, nil
}

// Names returns the analyzer names in sorted order.
func Names() []string {
	names := make([]string, 0, len(Contracts))
	for n := range Contracts {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// List writes the analyzer catalog — name and one-line contract — to w.
func List(w io.Writer) {
	for _, a := range Analyzers() {
		fmt.Fprintf(w, "%-12s %s\n", a.Name, Contracts[a.Name])
	}
}
