package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/workloads"
)

// config sizes one workload run. fullConfig is what the command runs;
// the smoke test runs the same code at toy scale.
type config struct {
	root   string // repository root: results/ and .bench_build/ live here
	seed   int64
	window time.Duration // measured window; a traced run splits it in halves
	traced bool
	setups int // set-up repetitions; setup_s is their median

	// table2 and codesign are the layers the library workloads optimize.
	table2, codesign []workloads.Layer
}

func fullConfig(seed int64, seconds int, traced bool) *config {
	return &config{
		root:     ".",
		seed:     seed,
		window:   time.Duration(seconds) * time.Second,
		traced:   traced,
		setups:   3,
		table2:   workloads.All(),
		codesign: codesignLayers(),
	}
}

// codesignLayers are the five Table II layers quickest to co-design for
// delay: 3x3 and 1x1 convolutions on 14x14 to 34x34 inputs, 0.3 to 1.4 s
// each at width 1 on a 2-vCPU box, 3 to 4 s together, so a run holds
// several passes. The whole Table II set takes about 60 s, longer than a
// run, and its slowest layers take 5 s each.
func codesignLayers() []workloads.Layer {
	var out []workloads.Layer
	for _, name := range []string{"resnet18_L10", "resnet18_L11", "yolo9000_L8", "yolo9000_L10", "yolo9000_L11"} {
		l, _ := workloads.ByName(name)
		out = append(out, l)
	}
	return out
}

func (c *config) traceDir() string { return filepath.Join(c.root, ".bench_build", "trace") }

// halves is the measured length of each window: the whole window, or in
// a traced run one untraced and one traced half.
func (c *config) halves() time.Duration {
	if c.traced {
		return c.window / 2
	}
	return c.window
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted int // calls made in the measured windows
	failed    int // calls that failed or returned a wrong design
	invalid   bool
	notes     []string // why calls failed or the run is invalid
	e2e       map[string]float64
	layer     map[string]float64
	plain     passStats // the untraced window's passes
}

func (o *outcome) failCall(format string, args ...any) {
	o.failed++
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// invalidate marks a run whose measurement cannot be trusted, such as a
// traced run whose stage spans do not add up to the wall clock.
func (o *outcome) invalidate(format string, args ...any) {
	o.invalid = true
	o.notes = append(o.notes, "invalid run: "+fmt.Sprintf(format, args...))
}

var runners = map[string]func(*config) (*outcome, error){
	"table2-energy":  runTable2,
	"codesign-delay": runCodesign,
	"serve-warm":     runServeWarm,
}

func run(name string, cfg *config) (*outcome, error) {
	r, ok := runners[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (one of %v)", name, sortedKeys(runners))
	}
	return r(cfg)
}

// endToEnd is a run's end-to-end metrics: the median set-up time and the
// untraced window's mean operation time in reference units.
func endToEnd(setup float64, plain passStats) map[string]float64 {
	return map[string]float64{
		"setup_s":     setup,
		"op_time_ref": plain.inRefs,
	}
}

// medianSetup runs setup n times and returns the median wall time in
// seconds. The last repetition's products are the ones the run uses.
func medianSetup(n int, setup func() error) (float64, error) {
	secs := make([]float64, n)
	for i := range secs {
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs[i] = time.Since(t0).Seconds()
	}
	return median(secs), nil
}

// quantile returns the q-quantile of ds by the nearest-rank method.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the median of xs: the middle value, or the mean of the
// two middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
