// Command tlreport works with the run records the other CLIs write via
// -events/-manifest: it renders manifests as aggregate per-layer tables,
// diffs two runs against configurable regression tolerances (exiting
// non-zero when EDP, energy, delay, or wall time regressed — the CI
// gate), and validates event streams and manifests against their
// schemas.
//
// Examples:
//
//	tlreport show run.manifest.json
//	tlreport show baseline.json candidate.json
//	tlreport diff baseline.json candidate.json
//	tlreport diff -edp-tol 0.05 -wall-tol 1.0 baseline.json candidate.json
//	tlreport validate run.events.jsonl
//	tlreport validate -manifest run.manifest.json run.events.jsonl
//	tlreport trace run.trace.json
//
// Exit codes: 0 success, 1 usage or unreadable input, 2 regressions
// found (diff) or schema validation failed (validate, trace).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/obs/events"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage(w *os.File) {
	fmt.Fprintln(w, `usage: tlreport <command> [flags] <files...>

commands:
  show      render one or more manifests as a per-layer table
  diff      compare two manifests and flag regressions (exit 2)
  validate  schema-check an event stream (and optionally a manifest)
  trace     analyze a -trace-out Chrome trace: critical path, self-time,
            scheduler queue-wait attribution (exit 2 on invalid trace)

run 'tlreport <command> -h' for command flags`)
}

func run(args []string) int {
	if len(args) == 0 {
		usage(os.Stderr)
		return 1
	}
	switch args[0] {
	case "show":
		return runShow(args[1:])
	case "diff":
		return runDiff(args[1:])
	case "validate":
		return runValidate(args[1:])
	case "trace":
		return runTrace(args[1:])
	case "-version", "--version", "version":
		fmt.Println(cliutil.VersionString("tlreport"))
		return 0
	case "-h", "-help", "--help", "help":
		usage(os.Stdout)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "tlreport: unknown command %q\n", args[0])
		usage(os.Stderr)
		return 1
	}
}

// runShow renders manifests as one aligned table (columns per run).
func runShow(args []string) int {
	fs := flag.NewFlagSet("tlreport show", flag.ExitOnError)
	_ = fs.Parse(args) // ExitOnError: Parse terminates the process on bad flags
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "tlreport show: at least one manifest path required")
		return 1
	}
	ms, err := events.LoadManifests(fs.Args(), os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlreport show:", err)
		return 1
	}
	if err := events.WriteTable(os.Stdout, ms); err != nil {
		fmt.Fprintln(os.Stderr, "tlreport show:", err)
		return 1
	}
	return 0
}

// runDiff compares exactly two manifests: old (baseline) then new.
func runDiff(args []string) int {
	fs := flag.NewFlagSet("tlreport diff", flag.ExitOnError)
	var opts events.DiffOptions
	fs.Float64Var(&opts.EDPTol, "edp-tol", 0, "tolerated fractional EDP growth (default 0.02)")
	fs.Float64Var(&opts.EnergyTol, "energy-tol", 0, "tolerated fractional energy growth (default 0.02)")
	fs.Float64Var(&opts.DelayTol, "delay-tol", 0, "tolerated fractional delay growth (default 0.02)")
	fs.Float64Var(&opts.WallTol, "wall-tol", 0, "tolerated fractional wall-time growth (default 0.50)")
	_ = fs.Parse(args) // ExitOnError: Parse terminates the process on bad flags
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "tlreport diff: exactly two manifest paths required (old new)")
		return 1
	}
	oldM, err := events.LoadManifest(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlreport diff:", err)
		return 1
	}
	newM, err := events.LoadManifest(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlreport diff:", err)
		return 1
	}
	fmt.Printf("diff %s (%s) -> %s (%s)\n", oldM.RunID, oldM.Tool, newM.RunID, newM.Tool)
	d := events.Diff(oldM, newM, opts)
	if err := d.WriteDiff(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tlreport diff:", err)
		return 1
	}
	if d.HasRegressions() {
		return 2
	}
	return 0
}

// runValidate schema-checks an event stream; -manifest adds a manifest
// load check against the same run.
func runValidate(args []string) int {
	fs := flag.NewFlagSet("tlreport validate", flag.ExitOnError)
	manPath := fs.String("manifest", "", "also load and schema-check this manifest")
	_ = fs.Parse(args) // ExitOnError: Parse terminates the process on bad flags
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "tlreport validate: exactly one event-stream path required")
		return 1
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlreport validate:", err)
		return 1
	}
	defer f.Close()
	sum, err := events.Validate(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlreport validate:", err)
		return 2
	}
	for _, w := range sum.Warnings {
		fmt.Fprintln(os.Stderr, "tlreport validate: warning:", w)
	}
	fmt.Printf("stream ok: run %s, %d events", sum.RunID, sum.Events)
	if !sum.Complete {
		fmt.Print(" (incomplete)")
	}
	fmt.Println()
	for _, typ := range []string{
		events.EvRunStart, events.EvLayersTotal, events.EvOptimizeStart,
		events.EvOptimizeEnd, events.EvLayerReused, events.EvSolveEnd,
		events.EvCentering, events.EvMapperEnd, events.EvModelValidate,
		events.EvRunEnd,
	} {
		if n := sum.ByType[typ]; n > 0 {
			fmt.Printf("  %-16s %d\n", typ, n)
		}
	}
	if *manPath != "" {
		m, err := events.LoadManifest(*manPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tlreport validate:", err)
			return 2
		}
		fmt.Printf("manifest ok: run %s, %d layers, total EDP %.4g\n",
			m.RunID, m.Totals.Layers, m.Totals.EDP)
		if sum.RunID != "" && m.RunID != sum.RunID {
			fmt.Fprintf(os.Stderr, "tlreport validate: stream run %s does not match manifest run %s\n",
				sum.RunID, m.RunID)
			return 2
		}
	}
	return 0
}
