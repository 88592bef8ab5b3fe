// Package servedep is a tlvet golden-file fixture; the golden test
// loads it under a fake import path inside repro/internal/serve so the
// layering analyzer applies the service rule. The optimizer stack the
// service fronts (core, pipeline, workloads, ...) is allowed; the CLI
// flag runtime and the figure-regeneration experiments sit above the
// service layer, so importing cliutil or experiments is an upward
// dependency.
package servedep

import (
	"repro/internal/cliutil" // want `serve imports repro/internal/cliutil, which is above it in the layering`
	"repro/internal/core"
	"repro/internal/experiments" // want `serve imports repro/internal/experiments, which is above it in the layering`
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

var (
	_ = cliutil.VersionString
	_ = core.ErrNoDesign
	_ = experiments.Table2
	_ = pipeline.ErrNoDesign
	_ = workloads.ByName
)
