// Command thistle is the optimizer CLI of the reproduction: given a
// workload (a Table II layer name, a whole network via -pipeline,
// explicit convolution parameters, an einsum, or a Timeloop-style
// problem spec), a criterion (energy, delay, or edp), and a mode
// (fixed-architecture dataflow optimization or architecture-dataflow
// co-design), it runs the staged Thistle pipeline and prints the
// resulting design point together with the Timeloop-style spec bundle.
//
// Whole-network runs share one bounded scheduler (-parallel) and
// deduplicate same-shaped layers. The shared runtime flag block
// (internal/cliutil) adds observability (-v, -trace-out, -metrics,
// profiles), the content-addressed solve cache (-cache, -cache-dir),
// and durable run records (-events, -manifest, -status-addr); see the
// README. The same optimizer is available as a long-running HTTP
// service via cmd/thistled.
//
// Examples:
//
//	thistle -layer resnet18_L6
//	thistle -pipeline resnet18 -cache -cache-dir .thistle-cache
//	thistle -layer yolo9000_L3 -criterion delay -mode codesign
//	thistle -K 128 -C 64 -H 56 -RS 3 -stride 2 -mode codesign
//	thistle -problem prob.yaml -arch arch.yaml -manifest run.manifest.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/arch"
	"repro/internal/cliutil"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/specs"
	"repro/internal/workloads"
	"repro/internal/yamlite"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "thistle:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		layerName = flag.String("layer", "", "Table II layer name (e.g. resnet18_L6)")
		pipeline  = flag.String("pipeline", "", "optimize every layer of a pipeline: resnet18 | yolo9000 | all")
		probFile  = flag.String("problem", "", "problem spec file (Timeloop-style YAML)")
		einsum    = flag.String("einsum", "", "einsum statement, e.g. 'C[i,j] += A[i,k] * B[k,j]' (needs -extents)")
		extents   = flag.String("extents", "", "comma-separated iterator extents for -einsum, e.g. 'i=64,j=64,k=64'")
		archFile  = flag.String("arch", "", "architecture spec file (default: Eyeriss)")
		criterion = flag.String("criterion", "energy", "optimization criterion: energy | delay | edp")
		mode      = flag.String("mode", "fixed", "optimization mode: fixed | codesign")
		area      = flag.Float64("area", 0, "co-design area budget in um^2 (default: Eyeriss-equal)")
		nDiv      = flag.Int("n", 0, "divisor candidates per tile variable (integerization; 0 = library default: 2 for energy, 3 for delay/EDP)")
		emitSpecs = flag.Bool("specs", true, "print the Timeloop-style spec bundle")
		emitCode  = flag.Bool("code", false, "print the tiled loop nest as pseudocode (paper Fig. 1(d) style)")
		kFlag     = flag.Int64("K", 0, "output channels (explicit conv)")
		cFlag     = flag.Int64("C", 0, "input channels (explicit conv)")
		hFlag     = flag.Int64("H", 0, "input height/width (explicit conv)")
		rsFlag    = flag.Int64("RS", 3, "kernel size (explicit conv)")
		stride    = flag.Int64("stride", 1, "stride (explicit conv)")
		dilation  = flag.Int64("dilation", 1, "dilation (explicit conv)")
		nocHop    = flag.Float64("noc", 0, "NoC energy per word-hop in pJ (0 disables, the paper's setting)")
		parallel  = flag.Int("parallel", 0, "total concurrent solve/integerize jobs across all layers (0 = NumCPU)")
		noBound   = flag.Bool("no-bound-pruning", false, "solve every class pair even when a cheap objective bound rules it out (ablation; results are identical)")
		noWarm    = flag.Bool("no-warm-start", false, "start every GP from the cold analytic hint instead of the previous class solution (ablation)")
	)
	var rf cliutil.Flags
	rf.Register(flag.CommandLine)
	flag.Parse()
	if rf.HandleVersion("thistle", os.Stdout) {
		return nil
	}

	rt, err := rf.Setup("thistle", os.Args[1:], os.Stderr)
	if err != nil {
		return err
	}
	defer rt.Close()
	o := rt.Obs
	sc := cliutil.OpenCache[*core.Result](rt, "optimize")
	ctx := obs.NewContext(context.Background(), o)
	ctx = core.ContextWithCache(ctx, sc)

	var prob *loopnest.Problem
	if *pipeline == "" {
		var err error
		prob, err = resolveProblem(*layerName, *probFile, *einsum, *extents, *kFlag, *cFlag, *hFlag, *rsFlag, *stride, *dilation)
		if err != nil {
			return err
		}
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
	a.Tech.EnergyNoCHop = *nocHop

	opts := core.Options{
		Arch: &a, NDiv: *nDiv, AreaBudget: *area, Parallel: *parallel,
		DisableBoundPruning: *noBound, DisableWarmStart: *noWarm,
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
	switch *mode {
	case "fixed":
		opts.Mode = core.FixedArch
	case "codesign":
		opts.Mode = core.CoDesign
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	if *pipeline != "" {
		if err := runPipeline(ctx, *pipeline, opts); err != nil {
			return err
		}
		if rt.ShowCacheStats() {
			sc.WriteStats(os.Stdout)
		}
		return rt.Finish(os.Stdout, sc.Stats())
	}

	res, err := core.OptimizeContext(ctx, prob, opts)
	if err != nil {
		return err
	}
	dp := res.Best
	fmt.Printf("problem:      %s (%d MACs)\n", prob.Name, prob.Ops())
	fmt.Printf("criterion:    %s, mode: %s\n", opts.Criterion, opts.Mode)
	fmt.Printf("architecture: %s\n", dp.Arch.String())
	fmt.Printf("energy:       %.3f pJ/MAC (%.4g pJ total)\n", dp.Report.EnergyPerMAC, dp.Report.Energy)
	fmt.Printf("breakdown:    compute %.3g, regfile %.3g, sram %.3g, dram %.3g pJ\n",
		dp.Report.Breakdown.Compute, dp.Report.Breakdown.RegFile,
		dp.Report.Breakdown.SRAM, dp.Report.Breakdown.DRAM)
	fmt.Printf("delay:        %.4g cycles (IPC %.2f, %d PEs used, %.0f%% utilization)\n",
		dp.Report.Cycles, dp.Report.IPC, dp.Report.PEsUsed, 100*dp.Report.Utilization)
	fmt.Printf("footprints:   %.0f register words/PE, %.0f SRAM words\n",
		dp.Report.RegFootprint, dp.Report.SRAMFootprint)
	cached := ""
	if res.Stats.FromCache {
		cached = " (served from cache, 0 solved this run)"
	}
	pruned := ""
	if res.Stats.Pruned > 0 {
		pruned = fmt.Sprintf(" (+%d pruned by bound)", res.Stats.Pruned)
	}
	fmt.Printf("search:       %d x %d permutation classes, %d GPs solved%s, %d integer candidates%s\n",
		res.Stats.ClassesL1, res.Stats.ClassesSRAM, res.Stats.PairsSolved, pruned, res.Stats.Candidates, cached)

	if *emitSpecs {
		nest, err := core.NestFor(prob, dp)
		if err != nil {
			return err
		}
		bundle, err := specs.DesignBundle(prob, &dp.Arch, nest, dp.Mapping)
		if err != nil {
			return err
		}
		fmt.Println("--- spec bundle ---")
		fmt.Print(bundle)
	}
	if *emitCode {
		nest, err := core.NestFor(prob, dp)
		if err != nil {
			return err
		}
		code, err := codegen.Generate(nest, dp.Mapping, &dp.Arch, codegen.DefaultOptions())
		if err != nil {
			return err
		}
		fmt.Println("--- tiled loop nest ---")
		fmt.Print(code)
	}
	if rt.ShowCacheStats() {
		sc.WriteStats(os.Stdout)
	}
	return rt.Finish(os.Stdout, sc.Stats())
}

// runPipeline optimizes every layer of a pipeline and prints one TSV row
// per layer plus totals. Layers that share a solve signature (same shape,
// arch, and options) are solved once and fan out.
func runPipeline(ctx context.Context, name string, opts core.Options) error {
	var layers []workloads.Layer
	switch name {
	case "resnet18":
		layers = workloads.ResNet18()
	case "yolo9000":
		layers = workloads.Yolo9000()
	case "all":
		layers = workloads.All()
	default:
		return fmt.Errorf("unknown pipeline %q (resnet18 | yolo9000 | all)", name)
	}
	results, err := experiments.OptimizeLayers(ctx, layers, opts, nil)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "layer\tMMACs\tpJ/MAC\tcycles\tIPC\tP\tR\tS(words)")
	var totalEnergy, totalCycles float64
	for i, l := range layers {
		rep := results[i].Best.Report
		totalEnergy += rep.Energy
		totalCycles += rep.Cycles
		fmt.Fprintf(w, "%s\t%.1f\t%.3f\t%.4g\t%.1f\t%d\t%d\t%d\n",
			l.Name(), float64(l.MACs())/1e6, rep.EnergyPerMAC, rep.Cycles, rep.IPC,
			results[i].Best.Arch.PEs, results[i].Best.Arch.Regs, results[i].Best.Arch.SRAM)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("pipeline total: %.4g pJ, %.4g cycles\n", totalEnergy, totalCycles)
	return nil
}

func resolveProblem(layerName, probFile, einsum, extents string, k, c, h, rs, stride, dilation int64) (*loopnest.Problem, error) {
	switch {
	case einsum != "":
		exts := map[string]int64{}
		for _, kv := range strings.Split(extents, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok {
				return nil, fmt.Errorf("bad extent %q (want name=value)", kv)
			}
			v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad extent %q: %v", kv, err)
			}
			exts[strings.TrimSpace(name)] = v
		}
		return loopnest.ParseEinsum(einsum, exts)
	case layerName != "":
		l, ok := workloads.ByName(layerName)
		if !ok {
			return nil, fmt.Errorf("unknown layer %q (try resnet18_L1..L12, yolo9000_L1..L11)", layerName)
		}
		return l.Problem()
	case probFile != "":
		text, err := os.ReadFile(probFile)
		if err != nil {
			return nil, err
		}
		node, err := yamlite.Parse(string(text))
		if err != nil {
			return nil, err
		}
		return specs.ParseProblem(node)
	case k > 0 && c > 0 && h > 0:
		return loopnest.Conv2D(loopnest.Conv2DConfig{
			N: 1, K: k, C: c, H: h / stride, W: h / stride, R: rs, S: rs,
			StrideX: stride, StrideY: stride,
			DilationX: dilation, DilationY: dilation,
		})
	default:
		return nil, fmt.Errorf("specify -layer, -problem, -einsum, or explicit -K/-C/-H")
	}
}
