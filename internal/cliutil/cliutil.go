// Package cliutil assembles the runtime shared by every Thistle CLI:
// the observability bundle (leveled logs, trace/metrics sinks, CPU and
// heap profiles), the content-addressed result cache, and the run-record
// event stream, all configured by one common flag block. The four
// commands (thistle, experiments, tlmapper, tlmodel) used to copy this
// wiring; they now differ only in their tool name and cached value type.
//
// Usage:
//
//	var rf cliutil.Flags
//	rf.Register(flag.CommandLine)
//	flag.Parse()
//	rt, err := rf.Setup("mytool", os.Args[1:], os.Stderr)
//	if err != nil { return err }
//	defer rt.Close()
//	c := cliutil.OpenCache[*core.Result](rt, "optimize")
//	... run using rt.Obs and c ...
//	return rt.Finish(os.Stdout, c.Stats())
package cliutil

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/obs/events"
)

// Flags is the shared CLI flag block: obs (verbosity, trace, metrics,
// profiles), cache (enable, dir, capacity, stats), events (event
// stream, manifest), and -version.
type Flags struct {
	Obs    obs.Flags
	Cache  cache.Flags
	Events events.Flags

	// Version is the shared -version flag; mains call HandleVersion
	// right after flag parsing.
	Version bool
}

// Register installs every shared flag on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	f.Obs.Register(fs)
	f.Cache.Register(fs)
	f.Events.Register(fs)
	fs.BoolVar(&f.Version, "version", false, "print the tool name and build git revision, then exit")
}

// VersionString formats tool's -version line from the git revision the
// toolchain stamped into the binary — the same value run manifests
// record as git_rev, so a binary, its manifests, and its trace files
// can be correlated from the CLI alone.
func VersionString(tool string) string {
	rev := events.BuildRevision()
	if rev == "" {
		rev = "unknown (built without VCS info)"
	}
	return tool + " " + rev
}

// HandleVersion prints the version line to w and reports true when the
// user passed -version; mains return immediately on true.
func (f *Flags) HandleVersion(tool string, w io.Writer) bool {
	if !f.Version {
		return false
	}
	fmt.Fprintln(w, VersionString(tool))
	return true
}

// Runtime is one CLI invocation's assembled shared runtime. The zero
// value is not useful; build one with Flags.Setup.
type Runtime struct {
	// Obs is the telemetry bundle (nil-safe: a run with no telemetry
	// flags yields a nil *Obs whose methods all no-op).
	Obs   *obs.Obs
	flags *Flags
}

// Setup assembles the runtime after flag parsing: the obs bundle first,
// then the event stream wrapping it (emitting run_start). tool and args
// name the invocation in the run record; warnings go to warnw.
func (f *Flags) Setup(tool string, args []string, warnw io.Writer) (*Runtime, error) {
	o, err := f.Obs.Setup(warnw)
	if err != nil {
		return nil, err
	}
	if o, err = f.Events.Setup(o, tool, args); err != nil {
		f.Obs.Close()
		return nil, err
	}
	// Stamp trace identity: the trace ID is derived from the run ID so a
	// -trace-out file correlates to the run's manifest and event stream;
	// without an event stream the tracer derives its own stable ID.
	if o != nil && o.Tracer != nil {
		meta := map[string]string{"tool": tool}
		if rev := events.BuildRevision(); rev != "" {
			meta["git_rev"] = rev
		}
		if runID := f.Events.Recorder().RunID(); runID != "" {
			o.Tracer.SetTraceID(obs.DeriveTraceID(runID))
			meta["run_id"] = runID
		}
		f.Obs.TraceMeta = meta
	}
	return &Runtime{Obs: o, flags: f}, nil
}

// OpenCache builds the tool's result cache from the shared flags, or
// nil when caching is off (the nil cache's methods are no-ops where it
// matters: Stats returns zeros).
func OpenCache[V any](rt *Runtime, component string) *cache.Cache[V] {
	return cache.Setup[V](&rt.flags.Cache, component, rt.Obs)
}

// ShowCacheStats reports whether the user asked for a cache-stats dump.
func (rt *Runtime) ShowCacheStats() bool { return rt.flags.Cache.ShowStats }

// Close releases the event stream and the obs outputs (trace file,
// profiles). Call it via defer right after Setup.
func (rt *Runtime) Close() {
	rt.flags.Events.Close()
	rt.flags.Obs.Close()
}

// Finish completes the run record: the event stream's run_end and
// manifest (folding in the cache counters when the cache was used),
// then the obs finishers (metrics dump to metricsOut, profile flush).
// Both run even if the first fails, so a broken manifest sink cannot
// suppress the metrics dump; the first error wins.
func (rt *Runtime) Finish(metricsOut io.Writer, stats cache.Stats) error {
	errEv := rt.flags.Events.Finish(stats.Manifest())
	errObs := rt.flags.Obs.Finish(metricsOut)
	if errEv != nil {
		return errEv
	}
	return errObs
}
