// Command ebavet is the repo's contract checker: a go/analysis
// multichecker enforcing the pooled-Ref ownership, determinism,
// cancellation-cause, and error-taxonomy contracts (see
// internal/analysis). It speaks the `go vet -vettool` protocol, which
// is how CI and developers run it:
//
//	go build -o bin/ebavet ./cmd/ebavet
//	go vet -vettool=$(pwd)/bin/ebavet ./...
//
// Flag hygiene for local triage (neither is used in CI, which always
// runs the full suite):
//
//	ebavet -list                 print the analyzer catalog with one-line contracts
//	ebavet -disable=name[,name]  drop analyzers for this invocation
//
// Because `go vet` owns the command line of a vettool, -disable is
// also honored from the EBAVET_DISABLE environment variable:
//
//	EBAVET_DISABLE=determinism go vet -vettool=$(pwd)/bin/ebavet ./...
package main

import (
	"fmt"
	"os"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"repro/internal/analysis/suite"
)

func main() {
	var disabled []string
	if env := os.Getenv("EBAVET_DISABLE"); env != "" {
		disabled = append(disabled, strings.Split(env, ",")...)
	}

	// Peel off ebavet's own flags before unitchecker parses the rest:
	// unitchecker owns the flag set of a vettool, so -list/-disable are
	// recognized positionally from the raw arguments.
	args := os.Args[1:]
	rest := args[:0:0]
	for i := 0; i < len(args); i++ {
		a := args[i]
		switch {
		case a == "-list" || a == "--list":
			suite.List(os.Stdout)
			return
		case strings.HasPrefix(a, "-disable=") || strings.HasPrefix(a, "--disable="):
			disabled = append(disabled, strings.Split(a[strings.Index(a, "=")+1:], ",")...)
		case a == "-disable" || a == "--disable":
			if i+1 < len(args) {
				i++
				disabled = append(disabled, strings.Split(args[i], ",")...)
			}
		default:
			rest = append(rest, a)
		}
	}

	analyzers, err := suite.Select(disabled)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Args = append(os.Args[:1], rest...)
	unitchecker.Main(analyzers...)
}
