// Command experiments regenerates the paper's evaluation tables and
// figures (Tables II–III, Figs. 4–8) plus this reproduction's extension
// studies (ext_edp, ext_noc), printing each as an aligned text table (or
// textual bar charts with -plot). With -out, each experiment is
// additionally written to <dir>/<id>.tsv.
//
// Whole-network sweeps share one bounded scheduler (-parallel) and
// deduplicate same-shaped layers before solving. The shared runtime
// flag block (internal/cliutil) adds observability (-v, -trace-out,
// -metrics, profiles), the solve cache (-cache, -cache-dir — the
// studies re-solve each other's baselines, so cross-figure hit rates
// are tabulated in EXPERIMENTS.md), and durable run records (-events,
// -manifest).
//
// Examples:
//
//	experiments -exp fig4
//	experiments -exp all -quick
//	experiments -exp all -out results/
//	experiments -exp fig5 -plot
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp   = flag.String("exp", "all", "experiment id: table2 table3 fig4 fig5 fig6 fig7 fig8 ext_edp ext_noc | all (comma-separated ok)")
		quick = flag.Bool("quick", false, "reduced layer subset and search budgets")
		out   = flag.String("out", "", "directory for .tsv outputs (optional)")
		plot  = flag.Bool("plot", false, "render textual bar charts instead of plain tables")
		seed  = flag.Int64("seed", 1, "random seed for the mapper baseline")
	)
	var rf cliutil.Flags
	rf.Register(flag.CommandLine)
	flag.Parse()
	if rf.HandleVersion("experiments", os.Stdout) {
		return nil
	}

	rt, err := rf.Setup("experiments", os.Args[1:], os.Stderr)
	if err != nil {
		return err
	}
	defer rt.Close()
	sc := cliutil.OpenCache[*core.Result](rt, "optimize")

	cfg := experiments.Config{Quick: *quick, Seed: *seed, Progress: os.Stderr, Obs: rt.Obs, Cache: sc}
	runners := experiments.AllRunners()

	var ids []string
	if *exp == "all" {
		ids = experiments.Order()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			if runners[id] == nil {
				return fmt.Errorf("unknown experiment %q", id)
			}
			ids = append(ids, id)
		}
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}
	for _, id := range ids {
		start := time.Now()
		e, err := runners[id](cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if *plot {
			e.RenderBars(os.Stdout)
		} else {
			e.Render(os.Stdout)
		}
		fmt.Printf("# %s completed in %s\n\n", id, time.Since(start).Round(time.Millisecond))
		if *out != "" {
			f, err := os.Create(filepath.Join(*out, id+".tsv"))
			if err != nil {
				return err
			}
			e.Render(f)
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if rt.ShowCacheStats() {
		sc.WriteStats(os.Stdout)
	}
	return rt.Finish(os.Stdout, sc.Stats())
}
