// Command tlvet runs the Thistle static-analysis suite over the
// module: project-specific invariants that go vet cannot check and the
// tests do not catch, from dropped errors and package layering up to
// flow-aware determinism on a module-wide callgraph.
//
// The analyzers and their one-line invariants:
//
//	ctxprop     ctx-receiving functions must not call context.Background/TODO or drop ctx when a Context variant exists
//	droppederr  error results must be consumed, not discarded
//	goscheduler go statements in internal/ must be Scheduler-internal, WaitGroup-scoped, or carry a reasoned suppression
//	maprange    map iteration must not feed Emit/serialization/printing or unsorted slice appends
//	stagedep    cross-package layering: pipeline and serve import only downward, and only commands import serve
//	wallclock   no wall-clock reads reachable from solver/gp/pipeline/core solve paths outside the obs allowlist
//
// Usage:
//
//	tlvet [-json] [-list] [dir]
//
// dir (default ".") may be any directory inside the module; the whole
// module is always analyzed. Exit status is 1 if any findings survive
// suppression, 2 on usage or load errors, 0 otherwise. Findings print
// as
//
//	file:line: [analyzer] message
//
// or, with -json, as a JSON array.
//
// Findings are suppressed per line with
// `//tlvet:ignore <analyzer>[, <analyzer>] -- <reason>` (per file with
// //tlvet:ignore-file).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
	"repro/internal/analysis/checks"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	analyzers := checks.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir := "."
	if flag.NArg() > 0 {
		dir = flag.Arg(0)
	}
	pkgs, err := analysis.LoadModule(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlvet: %v\n", err)
		os.Exit(2)
	}

	findings := analysis.Run(pkgs, analyzers, checks.Names())

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []analysis.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "tlvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "tlvet: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}
