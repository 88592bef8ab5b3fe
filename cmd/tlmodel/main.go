// Command tlmodel is the accelerator-model CLI (the reproduction's
// Timeloop-model substitute): it evaluates a concrete mapping of a
// problem on an architecture and prints the energy breakdown, delay, and
// capacity checks. Inputs are Timeloop-style YAML specs; a single bundle
// file containing problem, architecture, and mapping sections is also
// accepted.
//
// The shared runtime flag block (internal/cliutil) adds observability
// (-v, -trace-out, -metrics, profiles), report caching keyed by the
// raw spec text (-cache, -cache-dir), and durable run records
// (-events, -manifest).
//
// Examples:
//
//	tlmodel -bundle design.yaml
//	tlmodel -problem prob.yaml -arch arch.yaml -mapping map.yaml
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/dataflow"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/internal/yamlite"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tlmodel:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		bundle   = flag.String("bundle", "", "single YAML file with problem+architecture+mapping")
		probFile = flag.String("problem", "", "problem spec file")
		archFile = flag.String("arch", "", "architecture spec file")
		mapFile  = flag.String("mapping", "", "mapping spec file")
	)
	var rf cliutil.Flags
	rf.Register(flag.CommandLine)
	flag.Parse()
	if rf.HandleVersion("tlmodel", os.Stdout) {
		return nil
	}

	rt, err := rf.Setup("tlmodel", os.Args[1:], os.Stderr)
	if err != nil {
		return err
	}
	defer rt.Close()
	o := rt.Obs
	rc := cliutil.OpenCache[*model.Report](rt, "model")

	parseSpan := o.StartSpan(nil, "parse-specs")
	var probNode, archNode, mapNode *yamlite.Node
	var probText, archText, mapText string
	if *bundle != "" {
		root, text, err := parseFile(*bundle)
		if err != nil {
			return err
		}
		probNode, archNode, mapNode = root, root, root
		probText, archText, mapText = text, text, text
	} else {
		if *probFile == "" || *archFile == "" || *mapFile == "" {
			return fmt.Errorf("specify -bundle or all of -problem/-arch/-mapping")
		}
		var err error
		if probNode, probText, err = parseFile(*probFile); err != nil {
			return err
		}
		if archNode, archText, err = parseFile(*archFile); err != nil {
			return err
		}
		if mapNode, mapText, err = parseFile(*mapFile); err != nil {
			return err
		}
	}

	prob, err := specs.ParseProblem(probNode)
	if err != nil {
		return fmt.Errorf("problem: %w", err)
	}
	a, err := specs.ParseArch(archNode, arch.Tech45nm())
	if err != nil {
		return fmt.Errorf("architecture: %w", err)
	}
	nest, err := dataflow.StandardNest(prob, dataflow.StandardOptions{})
	if err != nil {
		return err
	}
	m, err := specs.ParseMapping(mapNode, nest)
	if err != nil {
		return fmt.Errorf("mapping: %w", err)
	}
	parseSpan.End()

	evalSpan := o.StartSpan(nil, "evaluate")
	if evalSpan != nil {
		evalSpan.Annotate(obs.String("problem", prob.Name))
	}
	// The report is a pure function of the three specs, so their raw
	// text is the cache key (whitespace-sensitive by design: any edit
	// to the inputs invalidates).
	sig := cache.Key{
		Component: "model",
		Params: []cache.Param{
			cache.ParamString("problem", probText),
			cache.ParamString("arch", archText),
			cache.ParamString("mapping", mapText),
		},
	}.Signature()
	rep, hit, err := rc.Do(sig, func() (*model.Report, error) {
		ev := model.NewEvaluator(nest)
		return ev.Evaluate(&a, m)
	})
	evalSpan.End()
	if err != nil {
		return err
	}
	if hit && o.Enabled(obs.Info) {
		o.Logf(obs.Info, "report served from cache (%s)", sig.Short())
	}
	if o.EventsEnabled() {
		o.Emit(&obs.ModelValidate{
			Problem:    prob.Name,
			Valid:      rep.Valid(),
			Violations: len(rep.Violations),
			EnergyPJ:   rep.Energy,
			Cycles:     rep.Cycles,
			EDP:        rep.Energy * rep.Cycles,
			FromCache:  hit,
		})
	}
	fmt.Printf("problem:       %s (%d MACs)\n", prob.Name, rep.Ops)
	fmt.Printf("architecture:  %s\n", a.String())
	fmt.Printf("energy:        %.4g pJ (%.3f pJ/MAC)\n", rep.Energy, rep.EnergyPerMAC)
	fmt.Printf("  compute      %.4g pJ\n", rep.Breakdown.Compute)
	fmt.Printf("  regfile      %.4g pJ\n", rep.Breakdown.RegFile)
	fmt.Printf("  sram         %.4g pJ\n", rep.Breakdown.SRAM)
	fmt.Printf("  dram         %.4g pJ\n", rep.Breakdown.DRAM)
	fmt.Printf("delay:         %.4g cycles (IPC %.2f)\n", rep.Cycles, rep.IPC)
	fmt.Printf("PEs used:      %d (%.0f%% utilization)\n", rep.PEsUsed, 100*rep.Utilization)
	fmt.Printf("traffic:       %.4g words S<->R, %.4g words D<->S\n", rep.TrafficSR, rep.TrafficDS)
	fmt.Printf("footprints:    %.0f register words/PE, %.0f SRAM words\n", rep.RegFootprint, rep.SRAMFootprint)
	if rt.ShowCacheStats() {
		rc.WriteStats(os.Stdout)
	}
	if rep.Valid() {
		fmt.Println("constraints:   ok")
		return rt.Finish(os.Stdout, rc.Stats())
	}
	fmt.Println("constraints:   VIOLATED")
	for _, v := range rep.Violations {
		fmt.Printf("  - %s\n", v)
	}
	// Violations exit non-zero, but the run record still completes: a
	// failed validation is exactly what the event stream should capture.
	if err := rt.Finish(os.Stdout, rc.Stats()); err != nil {
		fmt.Fprintln(os.Stderr, "tlmodel:", err)
	}
	os.Exit(2)
	return nil
}

func parseFile(path string) (*yamlite.Node, string, error) {
	text, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	node, err := yamlite.Parse(string(text))
	return node, string(text), err
}
