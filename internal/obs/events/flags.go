package events

import (
	"flag"

	"repro/internal/obs"
)

// Flags bundles the run-record command-line flags shared by every CLI
// of the reproduction (-events, -manifest). Typical use,
// after obs.Flags has produced the (possibly nil) telemetry bundle:
//
//	var ef events.Flags
//	ef.Register(flag.CommandLine)
//	flag.Parse()
//	o, err := ef.Setup(o, "thistle", os.Args[1:])
//	defer ef.Close()
//	... run, threading o through ...
//	return ef.Finish(cacheStats) // run_end event + manifest write
//
// Setup upgrades a nil Obs to one carrying the event sink, so run
// records work even with all other telemetry off.
type Flags struct {
	EventsPath   string
	ManifestPath string

	obs  *obs.Obs
	em   *Emitter
	rec  *Recorder
	done bool
}

// Register installs the flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.EventsPath, "events", "", "write the structured run-event stream as JSONL to this file")
	fs.StringVar(&f.ManifestPath, "manifest", "", "write the run manifest (per-layer results, totals, metrics) as JSON to this file")
}

// On reports whether any run-record feature was requested.
func (f *Flags) On() bool {
	return f.EventsPath != "" || f.ManifestPath != ""
}

// Setup wires the requested sinks into o (allocating an Obs when o is
// nil and something was requested) and emits run_start. A manifest
// request auto-attaches a metrics registry so the manifest's metrics
// snapshot is never empty.
func (f *Flags) Setup(o *obs.Obs, tool string, args []string) (*obs.Obs, error) {
	if !f.On() {
		return o, nil
	}
	if o == nil {
		o = &obs.Obs{}
	}
	if o.Metrics == nil && f.ManifestPath != "" {
		o.Metrics = obs.NewRegistry()
	}
	f.rec = NewRecorder(tool, args)
	if f.EventsPath != "" {
		em, err := Create(f.EventsPath)
		if err != nil {
			return nil, err
		}
		f.em = em
	}
	if f.em != nil {
		o.Events = Multi(f.em, f.rec)
	} else {
		o.Events = f.rec
	}
	f.obs = o
	o.Emit(f.rec.RunStart())
	return o, nil
}

// Recorder exposes the manifest recorder (nil before Setup or when no
// run-record flag was given).
func (f *Flags) Recorder() *Recorder { return f.rec }

// Finish completes the run record: emits run_end, writes the manifest
// atomically, and flushes and closes the event stream. cacheStats may
// be nil. Safe to call when no flag was set.
func (f *Flags) Finish(cacheStats *CacheStats) error {
	if f.rec == nil || f.done {
		return nil
	}
	f.done = true
	var snap *obs.Snapshot
	if f.obs != nil && f.obs.Metrics != nil {
		s := f.obs.Metrics.Snapshot()
		snap = &s
	}
	man := f.rec.Finish(cacheStats, snap)
	f.obs.Emit(man.RunEnd())
	var firstErr error
	if f.ManifestPath != "" {
		if err := WriteManifest(f.ManifestPath, man); err != nil {
			firstErr = err
		}
	}
	if err := f.closeEmitter(); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Close releases the event stream without writing the manifest (for
// error paths); idempotent alongside Finish.
func (f *Flags) Close() {
	_ = f.closeEmitter() // error path: the original failure is what matters
}

func (f *Flags) closeEmitter() error {
	em := f.em
	f.em = nil
	return em.Close()
}
