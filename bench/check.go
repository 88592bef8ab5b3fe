package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/floats"
	"repro/internal/loopnest"
)

// readColumn reads one series of a committed experiment table under
// results/ (the output of cmd/experiments), keyed by layer name. Values
// stay as printed, with 3 decimals, and are compared as text.
func readColumn(root, file, column string) (map[string]string, error) {
	path := filepath.Join(root, "results", file)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	col := -1
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		switch {
		case strings.HasPrefix(fields[0], "==") || strings.HasPrefix(fields[0], "#"):
		case fields[0] == "layer":
			for i, name := range fields {
				if name == column {
					col = i
				}
			}
		case col > 0 && col < len(fields):
			out[fields[0]] = fields[col]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no %s column", path, column)
	}
	return out, nil
}

// checkRef compares a result against its committed reference at the
// reference's 3 decimals.
func checkRef(refs map[string]string, layer, what string, got float64) error {
	want, ok := refs[layer]
	if !ok {
		return fmt.Errorf("%s: no reference %s", layer, what)
	}
	if g := fmt.Sprintf("%.3f", got); g != want {
		return fmt.Errorf("%s: %s %s, reference %s", layer, what, g, want)
	}
	return nil
}

// checkDesign re-evaluates a returned design with core.EvaluateOn. The
// report must be reproduced within 1e-12 and satisfy every constraint.
func checkDesign(p *loopnest.Problem, dp *core.DesignPoint) error {
	rep, err := core.EvaluateOn(p, &dp.Arch, dp)
	if err != nil {
		return fmt.Errorf("%s: re-evaluating the design: %w", p.Name, err)
	}
	if !rep.Valid() || !dp.Report.Valid() {
		return fmt.Errorf("%s: design violates %v", p.Name, rep.Violations)
	}
	want := dp.Report
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"energy", rep.Energy, want.Energy},
		{"energy/MAC", rep.EnergyPerMAC, want.EnergyPerMAC},
		{"cycles", rep.Cycles, want.Cycles},
		{"IPC", rep.IPC, want.IPC},
		{"utilization", rep.Utilization, want.Utilization},
		{"SRAM traffic", rep.TrafficSR, want.TrafficSR},
		{"DRAM traffic", rep.TrafficDS, want.TrafficDS},
	} {
		if !floats.EqTol(f.got, f.want, 1e-12) {
			return fmt.Errorf("%s: re-evaluated %s %v, reported %v", p.Name, f.name, f.got, f.want)
		}
	}
	return nil
}
