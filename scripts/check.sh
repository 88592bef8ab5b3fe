#!/bin/sh
# check.sh runs the repository's pre-merge gate: gofmt, build, vet, the
# tlvet static-analysis suite (project-specific invariants: event
# schema conformance, posynomial coefficient positivity, float
# comparison discipline, nil-receiver safety, dropped errors, plus the
# flow-aware wallclock/maprange/lockguard/ctxprop/goscheduler
# analyzers), which fails on any finding not suppressed by a reasoned
# //tlvet:ignore, the short test suite, the bench/ module's smoke test
# (every benchmark workload at toy scale), a race-detector pass over the
# concurrent packages (mapper worker pool, the pipeline scheduler and
# its staged GP flow, the experiments layer fan-out, solver hooks, obs,
# cache singleflight, the thistled admission path), and an end-to-end
# run-report gate: a small workload is optimized with
# -events/-manifest/-trace-out, the JSONL stream is validated against
# the schema, a tlreport self-diff must come back regression-free, and
# the Chrome trace file must parse and report a critical path
# (`tlreport trace`). A pruning/warm-start determinism gate runs the
# whole-network fixture with the solve-path optimizations on and off,
# at -parallel 1 and 4, and requires the manifests to agree to 1e-12.
# A cross-process disk-cache gate runs one layer twice over one
# -cache-dir: the second process must be served from the first one's
# record, found under its pinned solve signature, with the same result.
# A final serve gate boots thistled on a random
# port (scripts/servecheck), POSTs the same layer with a client
# request ID, verifies the ID joins the manifest, trace, and access
# log, probes the telemetry surface (/metrics SLO families, /varz,
# a tlmon -once frame), and diffs the server-side manifest against the
# CLI's — the two must agree exactly — before asserting a clean SIGTERM
# drain. Equivalent to `make check`.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== tlvet (project-specific static analysis)"
go run ./cmd/tlvet .

echo "== go test -short ./..."
go test -short ./...

echo "== bench smoke test (every workload at toy scale, every design checked)"
# bench/ is its own module, so go test ./... above does not reach it.
(cd bench && go test .)

echo "== go test -race (concurrent packages)"
go test -race -timeout 30m ./internal/obs/... ./internal/core/... ./internal/pipeline/... ./internal/mapper/... ./internal/solver/... ./internal/cache/... ./internal/serve/...
# The experiments figure sweeps are too slow under the race detector;
# race-check just the concurrent layer fan-out.
go test -race -timeout 30m -run 'TestOptimizeLayers' ./internal/experiments/

echo "== e2e run-report gate (thistle -events/-manifest + tlreport)"
go build -o "$tmp/thistle" ./cmd/thistle
go build -o "$tmp/tlreport" ./cmd/tlreport
"$tmp/thistle" -layer resnet18_L12 -specs=false \
    -events "$tmp/run.events.jsonl" -manifest "$tmp/run.manifest.json" \
    -trace-out "$tmp/run.trace.json" >/dev/null
"$tmp/tlreport" validate -manifest "$tmp/run.manifest.json" "$tmp/run.events.jsonl"
"$tmp/tlreport" diff -wall-tol 10 "$tmp/run.manifest.json" "$tmp/run.manifest.json"

echo "== e2e trace gate (tlreport trace on the captured Chrome trace)"
"$tmp/tlreport" trace "$tmp/run.trace.json" >/dev/null
# Results must be byte-identical with tracing off: rerun without
# -trace-out and self-diff the two manifests (wall time excluded).
"$tmp/thistle" -layer resnet18_L12 -specs=false \
    -manifest "$tmp/notrace.manifest.json" >/dev/null
"$tmp/tlreport" diff -wall-tol 1e9 "$tmp/run.manifest.json" "$tmp/notrace.manifest.json"

echo "== pruning/warm-start determinism gate (whole network, on vs off, parallel 1 vs 4)"
# Warm starts and bound pruning move solver iterates, never results:
# the whole-network manifests must agree to 1e-12 across scheduler
# widths and with both optimizations disabled.
"$tmp/thistle" -pipeline resnet18 -specs=false -parallel 1 \
    -manifest "$tmp/net.on.p1.manifest.json" >/dev/null
"$tmp/thistle" -pipeline resnet18 -specs=false -parallel 4 \
    -manifest "$tmp/net.on.p4.manifest.json" >/dev/null
"$tmp/thistle" -pipeline resnet18 -specs=false -parallel 4 \
    -no-bound-pruning -no-warm-start \
    -manifest "$tmp/net.off.p4.manifest.json" >/dev/null
"$tmp/tlreport" diff -edp-tol 1e-12 -energy-tol 1e-12 -delay-tol 1e-12 -wall-tol 1e9 \
    "$tmp/net.on.p1.manifest.json" "$tmp/net.on.p4.manifest.json"
"$tmp/tlreport" diff -edp-tol 1e-12 -energy-tol 1e-12 -delay-tol 1e-12 -wall-tol 1e9 \
    "$tmp/net.on.p1.manifest.json" "$tmp/net.off.p4.manifest.json"

echo "== cross-process disk-cache gate (a second process reads the first one's record)"
# Solve signatures name the on-disk records, so records written by an
# earlier build must still be found: the record of resnet18_L12 under
# the default options has this pinned name, and the second run must be
# served from it with a result identical to the first.
"$tmp/thistle" -layer resnet18_L12 -specs=false -cache-dir "$tmp/cache" \
    -manifest "$tmp/disk1.manifest.json" >/dev/null
"$tmp/thistle" -layer resnet18_L12 -specs=false -cache-dir "$tmp/cache" \
    -manifest "$tmp/disk2.manifest.json" >/dev/null
record="$tmp/cache/optimize-84509cefdc4ede285ffb750b9eca2eb0b8fc2bdb82af7a38c91ff510b1b4a318.json"
if [ ! -f "$record" ]; then
    echo "disk cache: no record $(basename "$record"); found:" >&2
    ls "$tmp/cache" >&2
    exit 1
fi
if ! grep -q '"disk_hits": 1' "$tmp/disk2.manifest.json" ||
    ! grep -q '"from_cache": true' "$tmp/disk2.manifest.json"; then
    echo "disk cache: the second run was not served from the disk record" >&2
    exit 1
fi
"$tmp/tlreport" diff -edp-tol 1e-12 -energy-tol 1e-12 -delay-tol 1e-12 -wall-tol 1e9 \
    "$tmp/disk1.manifest.json" "$tmp/disk2.manifest.json"

echo "== e2e serve gate (thistled vs thistle CLI, telemetry, graceful drain)"
go build -o "$tmp/thistled" ./cmd/thistled
go build -o "$tmp/tlmon" ./cmd/tlmon
go run ./scripts/servecheck "$tmp/thistled" "$tmp" "$tmp/tlmon"
# The server and the CLI optimized the same layer through the same
# pipeline; their per-layer results must agree exactly (wall time is
# the only legitimate difference).
"$tmp/tlreport" diff -edp-tol 1e-12 -energy-tol 1e-12 -delay-tol 1e-12 -wall-tol 1e9 \
    "$tmp/notrace.manifest.json" "$tmp/server.manifest.json"

echo "check: ok"
