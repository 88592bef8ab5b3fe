// Command thistled is the Thistle optimization service: a long-running
// HTTP/JSON daemon that accepts optimize requests (named Table II
// layers, whole networks, Timeloop-style YAML specs, or explicit conv
// shapes), runs them through the staged pipeline, and returns per-layer
// results plus a thistle-manifest-v1 manifest per request — the same
// record format the batch CLIs write, so tlreport show/diff/validate
// (and, with "trace": true, tlreport trace) work on server-side runs
// unchanged.
//
// Unlike the one-shot CLIs, all requests share ONE bounded scheduler
// and ONE content-addressed solve cache: concurrent clients cannot
// oversubscribe the box, and same-signature solves coalesce onto a
// single in-flight computation. When saturated the daemon sheds load
// with 429/503 + Retry-After; on SIGTERM/SIGINT it drains gracefully
// (stops accepting, finishes in-flight requests, flushes manifests).
//
//	thistled -addr localhost:8080 -cache
//	curl -s localhost:8080/v1/optimize -d '{"layer":"resnet18_L12"}'
//
// See docs/API.md for the HTTP surface and docs/OPERATIONS.md for
// running the daemon in production.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "thistled:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "localhost:8080", "listen address (host:port; port 0 picks a free port)")
	parallel := flag.Int("parallel", 0, "shared scheduler width: total leaf compute jobs in flight across all requests (default NumCPU)")
	maxConc := flag.Int("max-concurrent", 0, "max requests executing simultaneously (default NumCPU)")
	queue := flag.Int("queue", 0, "max requests waiting for an execution slot; beyond it requests get 429 (default 64; negative: no queue)")
	deadline := flag.Duration("deadline", 2*time.Minute, "default per-request deadline when the request carries no deadline_ms")
	maxDeadline := flag.Duration("max-deadline", 10*time.Minute, "upper clamp on client-requested deadlines")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "max time to wait for in-flight requests on SIGTERM before exiting anyway")
	spoolDir := flag.String("spool-dir", "", "persist each request's manifest (and requested events/trace) under this directory")
	cacheOn := flag.Bool("cache", true, "share a content-addressed solve cache across requests")
	cacheDir := flag.String("cache-dir", "", "persist cache entries as JSON records in this directory (implies -cache)")
	cacheSize := flag.Int("cache-size", 0, "max in-memory cache entries (default 1024)")
	verbosity := flag.String("v", "info", "log verbosity: off|warn|info|debug|trace")
	accessLog := flag.String("access-log", "", "write JSON access logs to this file ('-': stderr; default off)")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof/ profiling handlers")
	version := flag.Bool("version", false, "print the tool name and build git revision, then exit")
	flag.Parse()

	if *version {
		fmt.Println(cliutil.VersionString("thistled"))
		return nil
	}
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", flag.Args())
	}
	lvl, err := obs.ParseLevel(*verbosity)
	if err != nil {
		return err
	}

	o := &obs.Obs{
		Log:     obs.NewLogger(os.Stderr, lvl),
		Metrics: obs.NewRegistry(),
	}
	var sc *core.SolveCache
	if *cacheOn || *cacheDir != "" {
		sc = core.NewSolveCache(cache.Options{Capacity: *cacheSize, Dir: *cacheDir, Obs: o})
	}
	var accessW io.Writer
	switch *accessLog {
	case "":
	case "-":
		accessW = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		accessW = f
	}
	srv := serve.New(serve.Config{
		Parallel:        *parallel,
		MaxConcurrent:   *maxConc,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		SpoolDir:        *spoolDir,
		Cache:           sc,
		Obs:             o,
		AccessLog:       accessW,
	})
	defer srv.Close()

	handler := srv.Handler()
	if *pprofOn {
		handler = withPprof(handler)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address goes to stderr before serving starts so
	// wrappers (scripts/servecheck, port-0 test harnesses) can parse it.
	fmt.Fprintf(os.Stderr, "thistled: serving on http://%s\n", ln.Addr())

	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	fmt.Fprintln(os.Stderr, "thistled: draining (in-flight requests finishing)")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "thistled:", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "thistled: drained, exiting")
	return nil
}

// withPprof mounts the net/http/pprof handlers under /debug/pprof/ in
// front of the service handler. Registration is explicit (not the
// package's init-time DefaultServeMux side effect) so profiling is
// genuinely opt-in: without -pprof the paths 404 like any other.
func withPprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", next)
	return mux
}
