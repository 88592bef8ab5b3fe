package solver

import (
	"math"
	"testing"

	"repro/internal/obs"
)

// tinyGP is the classic minimize x+y s.t. x·y ≥ 1 in log space; from
// the origin the constraint is active (boundary), so phase I runs.
func tinyGP() *Problem {
	return &Problem{
		N:    2,
		Obj:  LSE{A: [][]float64{{1, 0}, {0, 1}}, B: []float64{0, 0}},
		Ineq: []LSE{Linear([]float64{-1, -1}, 0)},
	}
}

// TestSolveConvergenceTelemetry checks the Result's convergence fields:
// the certified gap is below tolerance for an optimal solve and the
// phase-I flag reflects whether a feasibility search ran.
func TestSolveConvergenceTelemetry(t *testing.T) {
	res, err := Solve(tinyGP(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if !res.PhaseI {
		t.Fatal("origin start sits on the constraint boundary: phase I should run")
	}
	if res.Gap <= 0 || res.Gap >= 1e-8 {
		t.Fatalf("final gap %g not in (0, tol)", res.Gap)
	}

	// A strictly feasible warm hint skips phase I.
	res2, err := Solve(tinyGP(), []float64{1, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != Optimal || res2.PhaseI {
		t.Fatalf("warm solve = status %v phase1 %v, want optimal without phase I", res2.Status, res2.PhaseI)
	}

	// Infeasible problems report PhaseI and a zero (uncertified) gap.
	infeas := &Problem{
		N:   1,
		Obj: Linear([]float64{1}, 0),
		Ineq: []LSE{
			Linear([]float64{1}, -math.Log(0.5)),
			Linear([]float64{-1}, math.Log(2)),
		},
	}
	res3, err := Solve(infeas, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Status != Infeasible || !res3.PhaseI || res3.Gap != 0 {
		t.Fatalf("infeasible solve = %+v, want infeasible via phase I with gap 0", res3)
	}
}

// TestSolveSpanConvergenceAttrs checks the solve span is annotated with
// the convergence telemetry.
func TestSolveSpanConvergenceAttrs(t *testing.T) {
	o := &obs.Obs{Tracer: obs.NewTracer()}
	res, err := Solve(tinyGP(), nil, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	tree := o.Tracer.Tree()
	if len(tree) != 1 || tree[0].Name != "solve" {
		t.Fatalf("span forest = %+v", tree)
	}
	attrs := tree[0].Attrs
	if attrs["gap"] != res.Gap || attrs["phase1"] != res.PhaseI {
		t.Fatalf("solve span attrs = %v, want gap %v phase1 %v", attrs, res.Gap, res.PhaseI)
	}
	if attrs["newton"] != int64(res.Newton) || attrs["status"] != "optimal" {
		t.Fatalf("solve span attrs = %v", attrs)
	}
	// Phase I ran, so a phase-i child span must exist.
	var names []string
	for _, c := range tree[0].Children {
		names = append(names, c.Name)
	}
	if len(names) != 2 || names[0] != "phase-i" || names[1] != "phase-ii" {
		t.Fatalf("solve children = %v, want [phase-i phase-ii]", names)
	}
}
