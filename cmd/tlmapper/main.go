// Command tlmapper is the search-based mapper CLI (the reproduction's
// Timeloop-Mapper substitute): a multi-threaded randomized search over
// factorizations and permutations, with per-thread victory condition and
// trial budget, evaluating candidates with the analytical model.
//
// The shared runtime flag block (internal/cliutil) adds observability
// (-v, -trace-out, -metrics, profiles), result caching (-cache,
// -cache-dir; the search seed, thread count, and budgets join the
// cache signature), and durable run records (-events, -manifest).
//
// Examples:
//
//	tlmapper -layer resnet18_L6
//	tlmapper -layer yolo9000_L5 -criterion delay -threads 8 -trials 50000
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/mapper"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/internal/workloads"
	"repro/internal/yamlite"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tlmapper:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		layerName = flag.String("layer", "", "Table II layer name (e.g. resnet18_L6)")
		probFile  = flag.String("problem", "", "problem spec file")
		archFile  = flag.String("arch", "", "architecture spec file (default: Eyeriss)")
		criterion = flag.String("criterion", "energy", "energy | delay | edp")
		threads   = flag.Int("threads", 8, "search threads")
		trials    = flag.Int("trials", 20000, "max candidates per thread (timeout)")
		victory   = flag.Int("victory", 4000, "consecutive non-improving candidates before a thread stops")
		seed      = flag.Int64("seed", 1, "random seed")
		emit      = flag.Bool("specs", false, "print the best mapping as a spec")
		consFile  = flag.String("constraints", "", "constraints spec file (pins factors/permutations)")
	)
	var rf cliutil.Flags
	rf.Register(flag.CommandLine)
	flag.Parse()
	if rf.HandleVersion("tlmapper", os.Stdout) {
		return nil
	}

	rt, err := rf.Setup("tlmapper", os.Args[1:], os.Stderr)
	if err != nil {
		return err
	}
	defer rt.Close()
	o := rt.Obs
	mc := cliutil.OpenCache[*mapper.Result](rt, "mapper")

	var prob *loopnest.Problem
	switch {
	case *layerName != "":
		l, ok := workloads.ByName(*layerName)
		if !ok {
			return fmt.Errorf("unknown layer %q", *layerName)
		}
		var err error
		prob, err = l.Problem()
		if err != nil {
			return err
		}
	case *probFile != "":
		text, err := os.ReadFile(*probFile)
		if err != nil {
			return err
		}
		node, err := yamlite.Parse(string(text))
		if err != nil {
			return err
		}
		prob, err = specs.ParseProblem(node)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("specify -layer or -problem")
	}

	a := arch.Eyeriss()
	if *archFile != "" {
		text, err := os.ReadFile(*archFile)
		if err != nil {
			return err
		}
		node, err := yamlite.Parse(string(text))
		if err != nil {
			return err
		}
		a, err = specs.ParseArch(node, arch.Tech45nm())
		if err != nil {
			return err
		}
	}

	opts := mapper.Options{Threads: *threads, MaxTrials: *trials, Victory: *victory, Seed: *seed, Obs: o}
	var consText string
	if *consFile != "" {
		text, err := os.ReadFile(*consFile)
		if err != nil {
			return err
		}
		consText = string(text)
		node, err := yamlite.Parse(string(text))
		if err != nil {
			return err
		}
		nest, err := dataflow.StandardNest(prob, dataflow.StandardOptions{})
		if err != nil {
			return err
		}
		cons, err := specs.ParseConstraints(node, nest)
		if err != nil {
			return err
		}
		opts.Constraints = cons
	}
	switch *criterion {
	case "energy":
		opts.Criterion = model.MinEnergy
	case "delay":
		opts.Criterion = model.MinDelay
	case "edp":
		opts.Criterion = model.MinEDP
	default:
		return fmt.Errorf("unknown criterion %q", *criterion)
	}

	// The randomized search is fully determined by (problem, arch,
	// criterion, budgets, seed, constraints), so those all feed the
	// cache signature — unlike core's cache, thread count matters here
	// because each thread owns a seeded RNG stream.
	sig := cache.Key{
		Component: "mapper",
		Problem:   prob,
		Arch:      &a,
		Criterion: opts.Criterion,
		Params: []cache.Param{
			cache.ParamInt("threads", int64(*threads)),
			cache.ParamInt("trials", int64(*trials)),
			cache.ParamInt("victory", int64(*victory)),
			cache.ParamInt("seed", *seed),
			cache.ParamString("constraints", consText),
		},
	}.Signature()
	res, hit, err := mc.Do(sig, func() (*mapper.Result, error) {
		return mapper.Search(prob, &a, opts)
	})
	if err != nil {
		return err
	}
	cached := ""
	if hit {
		cached = " (cached)"
	}
	if o.EventsEnabled() {
		rep := res.Report
		o.Emit(obs.EvMapperEnd, map[string]any{
			"problem":        prob.Name,
			"trials":         res.Trials,
			"valid":          res.Valid,
			"energy_pj":      rep.Energy,
			"cycles":         rep.Cycles,
			"edp":            rep.Energy * rep.Cycles,
			"energy_per_mac": rep.EnergyPerMAC,
			"ipc":            rep.IPC,
			"from_cache":     hit,
		})
	}
	fmt.Printf("problem:      %s (%d MACs)\n", prob.Name, res.Report.Ops)
	fmt.Printf("architecture: %s\n", a.String())
	fmt.Printf("trials:       %d total, %d valid%s\n", res.Trials, res.Valid, cached)
	fmt.Printf("best energy:  %.3f pJ/MAC (%.4g pJ)\n", res.Report.EnergyPerMAC, res.Report.Energy)
	fmt.Printf("best delay:   %.4g cycles (IPC %.2f, %d PEs)\n", res.Report.Cycles, res.Report.IPC, res.Report.PEsUsed)

	if *emit {
		nest, err := dataflow.StandardNest(prob, dataflow.StandardOptions{})
		if err != nil {
			return err
		}
		node, err := specs.FromMapping(nest, res.Mapping)
		if err != nil {
			return err
		}
		fmt.Println("--- mapping ---")
		fmt.Print(yamlite.Encode(node))
	}
	if rt.ShowCacheStats() {
		mc.WriteStats(os.Stdout)
	}
	return rt.Finish(os.Stdout, mc.Stats())
}
