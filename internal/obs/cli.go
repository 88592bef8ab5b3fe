package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags bundles the standard observability command-line flags shared by
// every CLI of the reproduction (-v, -trace-out, -metrics,
// -metrics-json, -cpuprofile, -memprofile). Typical use:
//
//	var of obs.Flags
//	of.Register(flag.CommandLine)
//	flag.Parse()
//	o, err := of.Setup(os.Stderr)   // o may be nil: telemetry disabled
//	defer of.Close()
//	... run, threading o through ...
//	return of.Finish(os.Stdout)     // writes trace/metrics/profiles
type Flags struct {
	Verbosity   string
	TraceOut    string
	Metrics     bool
	MetricsJSON string
	CPUProfile  string
	MemProfile  string

	// TraceMeta is merged into the Chrome trace file's otherData
	// (tool name, git rev, run ID). Callers populate it between Setup
	// and Finish; cliutil does this automatically.
	TraceMeta map[string]string

	obs     *Obs
	cpuFile *os.File
	// Output files are created eagerly in Setup so a bad path fails
	// before the run instead of after it; Finish fills them in.
	memFile     *os.File
	chromeOut   *os.File
	metricsFile *os.File
}

// Register installs the flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Verbosity, "v", "off", "log verbosity: off | warn | info | debug | trace")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the span forest as Chrome trace-event JSON (Perfetto-loadable) to this file")
	fs.BoolVar(&f.Metrics, "metrics", false, "print a metrics snapshot table on exit")
	fs.StringVar(&f.MetricsJSON, "metrics-json", "", "write the metrics snapshot as JSON to this file")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile (runtime/pprof) to this file")
}

// Setup builds the Obs bundle selected by the flags (logging to logw)
// and starts CPU profiling if requested. It returns nil when every
// telemetry feature is off, which is the zero-overhead fast path.
func (f *Flags) Setup(logw io.Writer) (*Obs, error) {
	lvl, err := ParseLevel(f.Verbosity)
	if err != nil {
		return nil, err
	}
	var o Obs
	if lvl != Off {
		o.Log = NewLogger(logw, lvl)
	}
	if f.TraceOut != "" {
		o.Tracer = NewTracer()
	}
	if f.Metrics || f.MetricsJSON != "" {
		o.Metrics = NewRegistry()
	}
	if f.CPUProfile != "" {
		cf, err := os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			_ = cf.Close()
			return nil, err
		}
		f.cpuFile = cf
	}
	// Create the remaining output files up front: a typo'd path should
	// fail now, not after the (possibly long) run.
	for _, out := range []struct {
		path string
		dst  **os.File
	}{
		{f.MemProfile, &f.memFile},
		{f.TraceOut, &f.chromeOut},
		{f.MetricsJSON, &f.metricsFile},
	} {
		if out.path == "" {
			continue
		}
		file, err := os.Create(out.path)
		if err != nil {
			f.Close()
			return nil, err
		}
		*out.dst = file
	}
	if o.Log == nil && o.Tracer == nil && o.Metrics == nil {
		return nil, nil
	}
	f.obs = &o
	return f.obs, nil
}

// Close stops CPU profiling if it is still running and closes any
// output files Finish has not consumed. Safe to call multiple times
// (e.g. deferred alongside an explicit Finish).
func (f *Flags) Close() {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		_ = f.cpuFile.Close()
		f.cpuFile = nil
	}
	for _, file := range []**os.File{&f.memFile, &f.chromeOut, &f.metricsFile} {
		if *file != nil {
			_ = (*file).Close()
			*file = nil
		}
	}
}

// Finish writes every requested artifact: stops the CPU profile, dumps
// the heap profile, writes the Chrome trace, prints the metrics table to
// metricsOut, and writes the metrics JSON.
func (f *Flags) Finish(metricsOut io.Writer) error {
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		cf := f.cpuFile
		f.cpuFile = nil
		if err := cf.Close(); err != nil {
			return err
		}
	}
	if mf := f.memFile; mf != nil {
		f.memFile = nil
		runtime.GC() // materialize up-to-date allocation stats
		err := pprof.WriteHeapProfile(mf)
		if cerr := mf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	// The Chrome trace is written before the metrics snapshot so any
	// clamped spans it counts land in the obs.trace.clamped metric of
	// this run's table/JSON rather than vanishing.
	if cf := f.chromeOut; cf != nil && f.obs != nil && f.obs.Tracer != nil {
		f.chromeOut = nil
		clamped, err := f.obs.Tracer.WriteChromeTrace(cf, f.TraceMeta)
		if clamped > 0 {
			f.obs.Metrics.Counter("obs.trace.clamped").Add(int64(clamped))
		}
		if cerr := cf.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	if f.obs != nil && f.obs.Metrics != nil {
		snap := f.obs.Metrics.Snapshot()
		if f.Metrics {
			fmt.Fprintln(metricsOut, "--- metrics ---")
			if err := snap.WriteTable(metricsOut); err != nil {
				return err
			}
		}
		if mf := f.metricsFile; mf != nil {
			f.metricsFile = nil
			err := snap.WriteJSON(mf)
			if cerr := mf.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
	}
	f.Close()
	return nil
}
