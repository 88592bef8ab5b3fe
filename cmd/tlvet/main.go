// Command tlvet runs the Thistle static-analysis suite over the
// module: project-specific invariants that go vet cannot check, from
// event-schema conformance up to flow-aware determinism and
// concurrency discipline on a module-wide callgraph.
//
// The analyzers and their one-line invariants:
//
//	ctxprop     ctx-receiving functions must not call context.Background/TODO or drop ctx when a Context variant exists
//	droppederr  error results must be consumed, not discarded
//	eventfields emitted thistle-events-v1 fields must match the registered schema
//	floateq     solver code must not compare floats with == / !=
//	goscheduler go statements in internal/ must be Scheduler-internal, WaitGroup-scoped, or carry a reasoned suppression
//	lockguard   fields annotated `guarded by <mu>` must only be accessed with that mutex held
//	maprange    map iteration must not feed Emit/serialization/printing or unsorted slice appends
//	nilrecv     obs helpers must stay nil-receiver-safe
//	posycoef    posynomial coefficients must be constructed positive
//	stagedep    pipeline stages must declare their data dependencies
//	wallclock   no wall-clock reads reachable from solver/gp/pipeline/core solve paths outside the obs allowlist
//
// Usage:
//
//	tlvet [-only names] [-skip names] [-json] [-list] [dir]
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
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/checks"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	skip := flag.String("skip", "", "comma-separated analyzer names to disable")
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

	enabled, err := selectAnalyzers(analyzers, *only, *skip)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlvet: %v\n", err)
		os.Exit(2)
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

	findings := analysis.Run(pkgs, enabled, checks.Names())

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

func selectAnalyzers(all []*analysis.Analyzer, only, skip string) ([]*analysis.Analyzer, error) {
	if only != "" && skip != "" {
		return nil, fmt.Errorf("-only and -skip are mutually exclusive")
	}
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range all {
		byName[a.Name] = a
	}
	parse := func(csv string) (map[string]bool, error) {
		set := make(map[string]bool)
		for _, name := range strings.Split(csv, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if byName[name] == nil {
				return nil, fmt.Errorf("unknown analyzer %q (see tlvet -list)", name)
			}
			set[name] = true
		}
		return set, nil
	}
	switch {
	case only != "":
		set, err := parse(only)
		if err != nil {
			return nil, err
		}
		var out []*analysis.Analyzer
		for _, a := range all {
			if set[a.Name] {
				out = append(out, a)
			}
		}
		return out, nil
	case skip != "":
		set, err := parse(skip)
		if err != nil {
			return nil, err
		}
		var out []*analysis.Analyzer
		for _, a := range all {
			if !set[a.Name] {
				out = append(out, a)
			}
		}
		return out, nil
	default:
		return all, nil
	}
}
