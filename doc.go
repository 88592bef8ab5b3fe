// Package repro reproduces "Comprehensive Accelerator-Dataflow Co-design
// Optimization for Convolutional Neural Networks" (CGO 2022) — the
// Thistle optimizer — as a self-contained Go library.
//
// The implementation lives under internal/ (see ARCHITECTURE.md for the
// full code map and DESIGN.md for the system inventory):
//
//   - expr, linalg, solver, gp: a from-scratch geometric-programming
//     stack (the paper's CVXPY substitute);
//   - loopnest, dataflow: the computation IR and the paper's Algorithm 1
//     for symbolic data-footprint/data-volume construction with
//     permutation-class pruning;
//   - arch, model, mapper: technology models (Table III), the
//     Timeloop-substitute analytical evaluator, and the randomized
//     search baseline;
//   - pipeline: the Thistle engine as explicit stages (Enumerate →
//     Formulate → Solve → Integerize → Validate → Select) sharing one
//     bounded cross-layer scheduler;
//   - core: the public facade over pipeline — Optimize, solve
//     signatures, cache wiring, run events;
//   - cache: the content-addressed solve cache (LRU memory tier,
//     singleflight dedup, optional JSON disk tier);
//   - obs, obs/events, obs/tracefile: spans, metrics, leveled logging,
//     durable run records (events JSONL + manifests), Chrome traces;
//   - serve: the thistled service layer — HTTP API, admission control,
//     shared scheduler/cache wiring, graceful drain;
//   - cliutil: the shared CLI runtime (obs + cache + events flags);
//   - workloads, specs, yamlite, experiments: Table II layers,
//     Timeloop-style spec I/O, and the per-figure experiment runners.
//
// Seven commands sit on top: thistle (optimizer CLI), tlmapper (search
// baseline), tlmodel (evaluator), experiments (tables/figures),
// thistled (the long-running optimization service; see docs/API.md),
// tlreport (run-record tooling), and tlvet (project-specific static
// analysis).
//
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation; cmd/experiments runs them at full scale.
// Performance is measured by the bench/ module (bash bench/run.sh).
package repro
