package experiments

import (
	"context"
	"testing"

	"repro/internal/cluster"
)

// TestExperimentsSmoke runs every figure driver at TestScale and validates
// shape-level properties against the paper.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers in short mode")
	}
	l := NewLab(TestScale())

	t1 := l.Table1()
	if len(t1.Machines) != 2 {
		t.Fatalf("Table1: want 2 machines, got %d", len(t1.Machines))
	}
	t.Log(t1.String())

	fig6, err := l.Fig6SummaryContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(fig6.String())

	fig7, err := l.Fig7CorrelationContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(fig7.String())
	if fig7.FracBelow80 < 0.4 {
		t.Errorf("Fig7: only %.2f of dimension pairs decorrelated below 0.8; paper reports 97.96%%", fig7.FracBelow80)
	}

	fig10, err := l.Fig10SpecSMTContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(fig10.String())
	if fig10.SmiteEval.MeanAbsError >= fig10.PMUEval.MeanAbsError {
		t.Errorf("Fig10: SMiTe (%.3f) should beat PMU (%.3f)", fig10.SmiteEval.MeanAbsError, fig10.PMUEval.MeanAbsError)
	}

	fig12, err := l.Fig12CloudSuiteContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(fig12.String())

	fig13, err := l.Fig13TailLatencyContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(fig13.String())

	fig14, err := l.Fig14And15AvgQoSContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(fig14.String())
	g95 := fig14.Cells[0.95][cluster.PolicySMiTe].UtilizationGain
	g85 := fig14.Cells[0.85][cluster.PolicySMiTe].UtilizationGain
	if g85 < g95 {
		t.Errorf("Fig14: utilization gain should grow as QoS loosens (95%%: %.3f, 85%%: %.3f)", g95, g85)
	}

	fig18, err := l.Fig18TCOContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(fig18.String())
}

// TestExperimentsSmoke2 covers the drivers not exercised by the first
// smoke test (all-pairs port utilisation, Ruler validation, CMP
// prediction).
func TestExperimentsSmoke2(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment drivers in short mode")
	}
	l := NewLab(TestScale())

	ports, err := l.Fig3And5PortUtilizationContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(ports.String())
	if ports.Pairs == 0 {
		t.Fatal("no pairs")
	}
	// Paper: the store port is heavily underutilised vs the load ports.
	if ports.Median(4) > ports.Median(2) {
		t.Errorf("store port median %.3f above load port median %.3f", ports.Median(4), ports.Median(2))
	}

	fig9, err := l.Fig9RulerValidationContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(fig9.String())
	for _, fu := range fig9.FU {
		if fu.TargetUtil < 0.9999 {
			t.Errorf("%s target-port utilisation %.5f < 99.99%%", fu.Name, fu.TargetUtil)
		}
		if fu.Leakage > 0.001 {
			t.Errorf("%s leaked %.4f onto non-target ports", fu.Name, fu.Leakage)
		}
		if fu.MemAccesses != 0 {
			t.Errorf("%s touched memory %d times", fu.Name, fu.MemAccesses)
		}
	}
	for _, lc := range fig9.Linearity {
		// At TestScale windows the noise floor rivals the per-step signal;
		// the full-scale run (EXPERIMENTS.md) validates the strong
		// correlations. Here we require the relation not be inverted.
		if lc.MeanR < 0 {
			t.Errorf("%v intensity-degradation relation inverted: r=%.2f", lc.Dim, lc.MeanR)
		}
	}

	fig11, err := l.Fig11SpecCMPContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(fig11.String())
	if fig11.SmiteEval.MeanAbsError >= fig11.PMUEval.MeanAbsError*1.2+0.02 {
		t.Errorf("Fig11: SMiTe (%.3f) should not lose badly to PMU (%.3f) even at reduced scale", fig11.SmiteEval.MeanAbsError, fig11.PMUEval.MeanAbsError)
	}
}

// TestModelAblation verifies the ablation driver and the multidimensional
// claim: the 7-dimension SMiTe model must beat the single-metric
// Bubble-Up-style baseline on SMT co-locations.
func TestModelAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in short mode")
	}
	l := NewLab(TestScale())
	r, err := l.ModelAblationContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(r.String())
	byName := make(map[string]AblationRow)
	for _, row := range r.Rows {
		byName[row.Model] = row
	}
	smite := byName["SMiTe (Eq.3, NNLS)"]
	bubble := byName["Bubble-Up-style (1 dim)"]
	if smite.Model == "" || bubble.Model == "" {
		t.Fatal("ablation rows missing")
	}
	if smite.TestErr >= bubble.TestErr {
		t.Errorf("multidimensional SMiTe (%.3f) should beat the single-metric model (%.3f) on SMT", smite.TestErr, bubble.TestErr)
	}
}

// TestCrossMachine exercises the coefficient-transfer study.
func TestCrossMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-machine study in short mode")
	}
	l := NewLab(TestScale())
	r, err := l.CrossMachineContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Log(r.String())
	if r.NativeErr <= 0 || r.TransferErr <= 0 || r.RetrainedErr <= 0 {
		t.Errorf("degenerate errors: %+v", r)
	}
	// Transfer should not be catastrophically worse than retraining.
	if r.TransferErr > r.RetrainedErr*3+0.05 {
		t.Errorf("coefficient transfer collapsed: %.3f vs retrained %.3f", r.TransferErr, r.RetrainedErr)
	}
}
