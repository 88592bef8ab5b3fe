// Command bench is the repository's end-to-end benchmark. It drives the
// optimizer through its public entry points — core.OptimizeContext and
// the thistled service's HTTP handler — on three seeded workloads,
// checks every design it gets back against committed references, and
// reports the metrics BENCHMARK.json names, with their units.
//
// Run it from the repository root; bench/run.sh builds and runs it:
//
//	bash bench/run.sh --workload table2-energy --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --seed 1    # every workload, each in its own process
//
// With --workload the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. A traced
// run also writes Chrome traces (readable by `tlreport trace`) under
// .bench_build/trace. The process exits 1 when any output was wrong or
// the run was invalid. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// parallel is every workload's GOMAXPROCS and the service's scheduler
// width. The benchmark is sized for a 2-core box; pinning both keeps runs
// on wider machines comparable.
const parallel = 2

func main() {
	if os.Getenv(refEnv) != "" {
		os.Exit(runReference())
	}
	workload := flag.String("workload", "", "workload to run; empty runs every workload of BENCHMARK.json, each in its own process")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: untraced run reporting the end-to-end metrics; 1: traced run reporting the per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *workload == "" {
		os.Exit(runAll(sp, *seed, *seconds, *trace))
	}
	runtime.GOMAXPROCS(parallel)
	cfg := fullConfig(*seed, *seconds, *trace == 1)
	out, err := run(*workload, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res, err := sp.result(out, cfg.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: nproc %d, GOMAXPROCS %d, %d attempted, %d failed; median pass %.1f ms, reference %.2f ms; passes in reference units %.3g\n",
		*workload, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), res.Attempted, res.Failed,
		ms(out.plain.wall), ms(out.plain.ref), out.plain.passes)
	for i, n := range out.notes {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(out.notes)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "  "+n)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// spec is the part of BENCHMARK.json the benchmark reads: the workload
// names and the metrics to report, with their units.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the metrics BENCHMARK.json names for the run's mode.
// A named metric the run did not measure, or a measured one the file
// does not name, is an error, so the file and the code cannot drift.
func (sp *spec) result(o *outcome, traced bool) (*result, error) {
	list, values := sp.EndToEnd, o.e2e
	if traced {
		list, values = sp.PerLayer, o.layer
	}
	r := &result{
		Correct:   o.failed == 0 && !o.invalid,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(list)),
	}
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is named in BENCHMARK.json but was not measured", m.Name)
		}
		r.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	if len(values) != len(list) {
		for _, name := range sortedKeys(values) {
			if _, ok := r.Metrics[name]; !ok {
				return nil, fmt.Errorf("measured metric %s is not named in BENCHMARK.json", name)
			}
		}
	}
	return r, nil
}

// runAll runs every workload in its own child process, so heap and RSS
// do not carry over between workloads, and prints one row per workload.
func runAll(sp *spec, seed int64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	list := sp.EndToEnd
	if trace == 1 {
		list = sp.PerLayer
	}
	status := 0
	for _, w := range sp.Workloads {
		cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
		var res result
		if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
			fmt.Printf("%-15s no result (%v)\n", w.Name, err)
			status = 1
			continue
		}
		if err != nil || !res.Correct {
			status = 1
		}
		fmt.Printf("%-15s correct=%t attempted=%d failed=%d", w.Name, res.Correct, res.Attempted, res.Failed)
		for _, m := range list {
			fmt.Printf("  %s=%.4g %s", m.Name, res.Metrics[m.Name].Value, m.Unit)
		}
		fmt.Println()
	}
	return status
}
